package headend_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
)

// TestResolveSteadyStateAllocBudget pins the allocations of one
// installing re-solve of a churn-resolve head-end (120 channels, 40
// gateways) with three gateways away, once the tenant's solver
// workspace is warm. What remains is the band fan-out (its goroutines
// and their WaitGroup) and the fresh array the install carves the
// carried streams' user lists from.
func TestResolveSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	in, err := generator.CableTV{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := headend.NewTenant(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i, s := range rng.Perm(in.NumStreams()) {
		tn.OfferStream(s)
		if i%4 == 3 {
			tn.DepartStream(s)
		}
	}
	for _, u := range []int{3, 11, 29} {
		tn.UserLeave(u)
	}
	const budget = 64
	allocs := testing.AllocsPerRun(20, func() {
		out, err := tn.Resolve(core.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Installed {
			t.Fatal("steady-state re-solve did not install")
		}
	})
	if allocs > budget {
		t.Fatalf("installing re-solve allocates %.0f times, budget %d", allocs, budget)
	}
	t.Logf("installing re-solve: %.0f allocations", allocs)
}
