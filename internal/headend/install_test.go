package headend_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
)

// driftTenant builds a tenant, drives it through a churny event
// sequence (offers, departures, a gateway leave/join), and returns it
// in a deliberately drifted state.
func driftTenant(t *testing.T, policy string, seed int64) *headend.Tenant {
	t.Helper()
	in, err := generator.CableTV{Channels: 20, Gateways: 6, Seed: seed, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := headend.NewPolicyByName(in, policy)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := headend.NewTenant(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i, s := range rng.Perm(in.NumStreams()) {
		tn.OfferStream(s)
		if i%3 == 2 {
			tn.DepartStream(s)
		}
	}
	tn.UserLeave(1)
	tn.UserJoin(1)
	tn.UserLeave(2) // stays away through the resolve
	return tn
}

// TestResolveMonitoringDoesNotTouchState pins the install=false
// contract: the running assignment is untouched and both values are
// reported — on a drifted tenant, and again after an install with a
// different set of gateways away, when the re-solve workspace is warm.
// Neither a monitoring nor a later installing re-solve may change a
// slice an earlier step returned.
func TestResolveMonitoringDoesNotTouchState(t *testing.T) {
	tn := driftTenant(t, "online", 31)
	checkMonitoring(t, tn)

	if out, err := tn.Resolve(core.Options{}, true); err != nil || !out.Installed {
		t.Fatalf("install: %+v, %v", out, err)
	}
	var returned, want [][]int
	keep := func(users []int) {
		returned = append(returned, users)
		want = append(want, append([]int(nil), users...))
	}
	carried := tn.Assignment().Range()
	for _, s := range carried[:2] {
		keep(tn.DepartStream(s))
	}
	tn.UserJoin(2)
	keep(tn.UserLeave(4))
	keep(tn.OfferStream(carried[0]))
	checkMonitoring(t, tn)
	if _, err := tn.Resolve(core.Options{}, true); err != nil {
		t.Fatal(err)
	}
	for i := range returned {
		if !slices.Equal(returned[i], want[i]) {
			t.Fatalf("returned slice %d changed from %v to %v", i, want[i], returned[i])
		}
	}
}

// checkMonitoring runs one install=false re-solve and checks that it
// leaves the assignment and the snapshot as they were, apart from the
// re-solve's own counters.
func checkMonitoring(t *testing.T, tn *headend.Tenant) {
	t.Helper()
	before := tn.Assignment().Clone()
	snap := tn.Snapshot()
	out, err := tn.Resolve(core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Installed {
		t.Fatal("monitoring resolve installed")
	}
	if out.OfflineValue <= 0 {
		t.Fatalf("offline value = %v", out.OfflineValue)
	}
	if math.Abs(out.OnlineValue-before.Utility(tn.Instance())) > 1e-9 {
		t.Fatalf("online value = %v, want %v", out.OnlineValue, before.Utility(tn.Instance()))
	}
	if !tn.Assignment().Equal(before) {
		t.Fatal("monitoring resolve mutated the running assignment")
	}
	snap.Resolves++
	snap.LastResolveValue = out.OfflineValue
	if got := tn.Snapshot(); got != snap {
		t.Fatalf("snapshot after monitoring resolve = %+v, want %+v", got, snap)
	}
}

// TestResolveInstall pins the install path for every installable
// policy: the offline lineup replaces the drifted one, utility does not
// drop, feasibility holds, away gateways receive nothing, and the
// rebuilt policy keeps serving consistently.
func TestResolveInstall(t *testing.T) {
	for _, policy := range []string{"online", "threshold", "oracle", "static"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			tn := driftTenant(t, policy, 47)
			onlineValue := tn.Assignment().Utility(tn.Instance())
			out, err := tn.Resolve(core.Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Installed && out.OfflineValue >= out.OnlineValue {
				t.Fatalf("offline %.3f >= online %.3f but not installed", out.OfflineValue, out.OnlineValue)
			}
			got := tn.Assignment().Utility(tn.Instance())
			if got+1e-9 < onlineValue {
				t.Fatalf("post-resolve utility %.3f < online %.3f", got, onlineValue)
			}
			if err := tn.Assignment().CheckFeasible(tn.Instance()); err != nil {
				t.Fatalf("installed assignment infeasible: %v", err)
			}
			if out.Installed {
				if math.Abs(got-out.OfflineValue) > 1e-6 {
					t.Fatalf("installed utility %.6f != offline value %.6f", got, out.OfflineValue)
				}
				if streams := tn.Assignment().UserStreams(2); len(streams) != 0 {
					t.Fatalf("away gateway serves %v after install", streams)
				}
				// Carried set must mirror the installed assignment.
				for _, s := range tn.Assignment().Range() {
					if !tn.Carries(s) {
						t.Fatalf("installed stream %d not marked carried", s)
					}
				}
				if snap := tn.Snapshot(); snap.Installs != 1 {
					t.Fatalf("snapshot installs = %d", snap.Installs)
				}
			}
			// The tenant keeps serving on the rebuilt policy state:
			// further offers and churn must preserve feasibility.
			for s := 0; s < tn.Instance().NumStreams(); s++ {
				tn.OfferStream(s)
			}
			tn.UserJoin(2)
			tn.UserLeave(0)
			if err := tn.Assignment().CheckFeasible(tn.Instance()); err != nil {
				t.Fatalf("post-install serving infeasible: %v", err)
			}
		})
	}
}

// nonInstallablePolicy admits nothing and cannot rebuild its state.
type nonInstallablePolicy struct{}

func (nonInstallablePolicy) Name() string                { return "test-static-state" }
func (nonInstallablePolicy) OnStreamArrival(s int) []int { return nil }

// TestResolveInstallRequiresReinstallablePolicy pins the error path: a
// policy without Reinstall refuses the install and leaves state alone.
func TestResolveInstallRequiresReinstallablePolicy(t *testing.T) {
	in, err := generator.CableTV{Channels: 10, Gateways: 4, Seed: 52}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tn, err := headend.NewTenant(in, nonInstallablePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	before := tn.Assignment().Clone()
	if _, err := tn.Resolve(core.Options{}, true); err == nil {
		t.Fatal("install accepted on a policy without Reinstall")
	}
	if !tn.Assignment().Equal(before) {
		t.Fatal("failed install mutated the running assignment")
	}
}
