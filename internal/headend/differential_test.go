package headend_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
)

// The ledger-based guarded online policy must be bit-for-bit
// indistinguishable from the retained pre-ledger implementation (trial
// Add + full CheckFeasible rescan, NewRescanOnlinePolicy): identical
// admission decisions, identical assignments, identical snapshots. These
// tests drive both implementations through E10's arrival order and
// through a churn + make-before-break install sequence and require
// exact equality — including float64 utilities, which only match
// bitwise when the decisions and the summation orders match.

func diffCableInstance(t testing.TB, channels, gateways int, seed int64) *generator.CableTV {
	t.Helper()
	return &generator.CableTV{
		Channels: channels, Gateways: gateways, Seed: seed, EgressFraction: 0.25,
	}
}

// TestLedgerPolicyMatchesRescanE10 offers E10's catalog (40 channels,
// 10 gateways) once in E10's seeded order to a ledger tenant and a
// rescan tenant.
func TestLedgerPolicyMatchesRescanE10(t *testing.T) {
	for _, seed := range []int64{110, 7, 999} {
		in, err := diffCableInstance(t, 40, 10, seed).Generate()
		if err != nil {
			t.Fatal(err)
		}
		ledgerPol, err := headend.NewOnlinePolicy(in, true)
		if err != nil {
			t.Fatal(err)
		}
		rescanPol, err := headend.NewRescanOnlinePolicy(in)
		if err != nil {
			t.Fatal(err)
		}
		ledgerTen, err := headend.NewTenant(in, ledgerPol)
		if err != nil {
			t.Fatal(err)
		}
		rescanTen, err := headend.NewTenant(in, rescanPol)
		if err != nil {
			t.Fatal(err)
		}
		offerCatalog(ledgerTen, seed)
		offerCatalog(rescanTen, seed)
		if !ledgerTen.Assignment().Equal(rescanTen.Assignment()) {
			t.Fatalf("seed %d: assignments diverged: %v vs %v",
				seed, ledgerTen.Assignment(), rescanTen.Assignment())
		}
		ls, rs := ledgerTen.Snapshot(), rescanTen.Snapshot()
		if math.Float64bits(ls.Utility) != math.Float64bits(rs.Utility) {
			t.Fatalf("seed %d: utility %v != reference %v", seed, ls.Utility, rs.Utility)
		}
		if ls.StreamsAdmitted != rs.StreamsAdmitted || ls.StreamsOffered != rs.StreamsOffered {
			t.Fatalf("seed %d: admission counts diverged: %d/%d vs %d/%d", seed,
				ls.StreamsAdmitted, ls.StreamsOffered, rs.StreamsAdmitted, rs.StreamsOffered)
		}
		if !ls.Feasible {
			t.Fatalf("seed %d: ledger policy infeasible", seed)
		}
	}
}

// TestLedgerPolicyMatchesRescanChurnInstall replays an E12-shaped event
// sequence — arrivals, stream departures, gateway leaves/joins, and an
// installing re-solve mid-stream — on two tenants in lockstep and
// requires bit-identical per-step results and snapshots.
func TestLedgerPolicyMatchesRescanChurnInstall(t *testing.T) {
	in, err := diffCableInstance(t, 24, 8, 120).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ledgerPol, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		t.Fatal(err)
	}
	rescanPol, err := headend.NewRescanOnlinePolicy(in)
	if err != nil {
		t.Fatal(err)
	}
	ledgerTen, err := headend.NewTenant(in, ledgerPol)
	if err != nil {
		t.Fatal(err)
	}
	rescanTen, err := headend.NewTenant(in, rescanPol)
	if err != nil {
		t.Fatal(err)
	}

	compare := func(step string) {
		t.Helper()
		ls, rs := ledgerTen.Snapshot(), rescanTen.Snapshot()
		if ls != rs {
			t.Fatalf("%s: snapshots diverged:\nledger: %+v\nrescan: %+v", step, ls, rs)
		}
		if !ledgerTen.Assignment().Equal(rescanTen.Assignment()) {
			t.Fatalf("%s: assignments diverged", step)
		}
	}

	rng := rand.New(rand.NewSource(120))
	arrivals := 0
	var carried []int
	var away []int
	for round := 0; round < 2; round++ {
		for _, s := range rng.Perm(in.NumStreams()) {
			lu := ledgerTen.OfferStream(s)
			ru := rescanTen.OfferStream(s)
			if len(lu) != len(ru) {
				t.Fatalf("offer %d: delivered %v vs %v", s, lu, ru)
			}
			for i := range lu {
				if lu[i] != ru[i] {
					t.Fatalf("offer %d: delivered %v vs %v", s, lu, ru)
				}
			}
			arrivals++
			carried = append(carried, s)
			if arrivals%3 == 0 {
				d := carried[0]
				carried = carried[1:]
				ledgerTen.DepartStream(d)
				rescanTen.DepartStream(d)
			}
			if arrivals%5 == 0 {
				if len(away) > 0 {
					u := away[0]
					away = away[1:]
					ledgerTen.UserJoin(u)
					rescanTen.UserJoin(u)
				} else {
					u := rng.Intn(in.NumUsers())
					away = append(away, u)
					ledgerTen.UserLeave(u)
					rescanTen.UserLeave(u)
				}
			}
		}
		compare("after round")
		// Mid-stream installing re-solve: both tenants rebuild their
		// policy state make-before-break around the same offline lineup.
		lOut, err := ledgerTen.Resolve(core.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		rOut, err := rescanTen.Resolve(core.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if lOut != rOut {
			t.Fatalf("resolve outcomes diverged: %+v vs %+v", lOut, rOut)
		}
		compare("after install")
	}
	compare("final")
}
