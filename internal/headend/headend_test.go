package headend_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/mmd"
)

func cableInstance(t *testing.T, seed int64) *generator.CableTV {
	t.Helper()
	return &generator.CableTV{Channels: 30, Gateways: 8, Seed: seed, EgressFraction: 0.3}
}

// offerCatalog offers every stream of the tenant's instance once, in a
// seeded random order.
func offerCatalog(ten *headend.Tenant, seed int64) {
	for _, s := range rand.New(rand.NewSource(seed)).Perm(ten.Instance().NumStreams()) {
		ten.OfferStream(s)
	}
}

// applyWorkload applies tenant 0's schedule of w to ten one event at a
// time and fails the test at the first event after which the running
// assignment exceeds a budget or capacity.
func applyWorkload(t *testing.T, ten *headend.Tenant, w cluster.Workload) {
	t.Helper()
	in := ten.Instance()
	for i, ev := range w.EventsForInstance(in, 0) {
		switch ev.Type {
		case cluster.EventStreamArrival:
			ten.OfferStream(ev.Stream)
		case cluster.EventStreamDeparture:
			ten.DepartStream(ev.Stream)
		case cluster.EventUserLeave:
			ten.UserLeave(ev.User)
		case cluster.EventUserJoin:
			ten.UserJoin(ev.User)
		}
		if err := ten.Assignment().CheckFeasible(in); err != nil {
			t.Fatalf("event %d (%+v): %v", i, ev, err)
		}
	}
}

func newTenant(t *testing.T, in *mmd.Instance, policy string) *headend.Tenant {
	t.Helper()
	pol, err := headend.NewPolicyByName(in, policy)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := headend.NewTenant(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	return ten
}

// TestPoliciesStayFeasible: every policy that respects the budgets
// keeps the running assignment feasible after every event — on a
// single pass over the catalog, and for online and threshold also
// under stream departures and gateway churn. The online rows with
// departures use schedules on which the unguarded allocator does
// exceed a budget, so they exercise the guard.
func TestPoliciesStayFeasible(t *testing.T) {
	cases := []struct {
		name   string
		policy string
		seed   int64
		w      cluster.Workload
	}{
		{"threshold-single-pass", "threshold", 1, cluster.Workload{Seed: 7}},
		{"online-single-pass", "online", 3, cluster.Workload{Seed: 9}},
		{"static-single-pass", "static", 6, cluster.Workload{Seed: 12}},
		{"online-departures", "online", 33, cluster.Workload{Seed: 34, Rounds: 3, DepartEvery: 2}},
		{"threshold-departures", "threshold", 23, cluster.Workload{Seed: 24, Rounds: 2, DepartEvery: 2}},
		{"online-gateway-churn", "online", 44, cluster.Workload{Seed: 45, Rounds: 3, DepartEvery: 2, ChurnEvery: 4}},
		{"threshold-gateway-churn", "threshold", 53, cluster.Workload{Seed: 54, Rounds: 3, DepartEvery: 2, ChurnEvery: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := cableInstance(t, tc.seed).Generate()
			if err != nil {
				t.Fatal(err)
			}
			ten := newTenant(t, in, tc.policy)
			applyWorkload(t, ten, tc.w)
			snap := ten.Snapshot()
			rounds := max(tc.w.Rounds, 1)
			if snap.StreamsOffered != rounds*in.NumStreams() || snap.StreamsAdmitted == 0 {
				t.Fatalf("offered %d admitted %d, want %d offers and some admissions",
					snap.StreamsOffered, snap.StreamsAdmitted, rounds*in.NumStreams())
			}
			if tc.w.DepartEvery > 0 && snap.StreamsDeparted == 0 {
				t.Fatal("no stream departed")
			}
			if tc.w.ChurnEvery > 0 && (snap.UserLeaves == 0 || snap.UserJoins == 0) {
				t.Fatalf("no gateway churn: %d leaves, %d joins", snap.UserLeaves, snap.UserJoins)
			}
			if !snap.Feasible {
				t.Fatal("snapshot reports an infeasible assignment")
			}
		})
	}
}

// TestOracleRevealsPrecomputedAssignment: offered the whole catalog,
// the oracle's tenant ends up carrying exactly the offline assignment.
func TestOracleRevealsPrecomputedAssignment(t *testing.T) {
	in, err := cableInstance(t, 2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := headend.NewOraclePolicy(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ten, err := headend.NewTenant(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	offerCatalog(ten, 8)
	if !ten.Assignment().Equal(pol.Assignment()) {
		t.Fatal("revealed assignment differs from the precomputed one")
	}
	if err := ten.Assignment().CheckFeasible(in); err != nil {
		t.Fatalf("oracle infeasible: %v", err)
	}
}

func TestOracleBeatsThresholdAggregate(t *testing.T) {
	oracleTotal, thresholdTotal := 0.0, 0.0
	for seed := int64(0); seed < 6; seed++ {
		in, err := (&generator.CableTV{
			Channels: 40, Gateways: 10, Seed: seed, EgressFraction: 0.2,
		}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		oracle, thr := newTenant(t, in, "oracle"), newTenant(t, in, "threshold")
		offerCatalog(oracle, seed)
		offerCatalog(thr, seed)
		oracleTotal += oracle.Snapshot().Utility
		thresholdTotal += thr.Snapshot().Utility
	}
	if oracleTotal <= thresholdTotal {
		t.Fatalf("oracle %v did not beat threshold %v in aggregate", oracleTotal, thresholdTotal)
	}
}

// TestChurnReusesFreedCapacity: the same catalog offered twice on a
// tight instance, with departures in between, must admit in round 2
// streams that round 1's load would have blocked — measured as more
// admissions than the same arrival order without departures.
func TestChurnReusesFreedCapacity(t *testing.T) {
	in, err := (&generator.CableTV{
		Channels: 30, Gateways: 8, Seed: 25, EgressFraction: 0.15, // tight
	}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	churn, still := newTenant(t, in, "threshold"), newTenant(t, in, "threshold")
	applyWorkload(t, churn, cluster.Workload{Seed: 26, Rounds: 2, DepartEvery: 2})
	applyWorkload(t, still, cluster.Workload{Seed: 26, Rounds: 2})
	admitChurn, admitStill := churn.Snapshot().StreamsAdmitted, still.Snapshot().StreamsAdmitted
	if admitChurn <= admitStill {
		t.Fatalf("churn admissions %d <= no-churn %d: freed capacity was not reused",
			admitChurn, admitStill)
	}
}

func TestPolicyConstructorsReject(t *testing.T) {
	in, err := cableInstance(t, 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := headend.NewThresholdPolicy(in, 0); err == nil {
		t.Error("NewThresholdPolicy accepted margin 0")
	}
	if _, err := headend.NewThresholdPolicy(in, 2); err == nil {
		t.Error("NewThresholdPolicy accepted margin 2")
	}
}
