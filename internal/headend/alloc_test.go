package headend_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/mmd"
)

// TestResolveSteadyStateAllocBudget pins one installing re-solve of a
// churn-resolve head-end (120 channels, 40 gateways) with three
// gateways away at zero allocations, once the tenant's solver workspace
// and both of the online policy's alternating allocator states are
// warm. The bands are solved on the caller's goroutine, and an install
// that repeats the lineup keeps every carried list.
func TestResolveSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	resolve := warmResolveTenant(t)
	if allocs := testing.AllocsPerRun(20, resolve); allocs != 0 {
		t.Fatalf("warm installing re-solve allocates %.0f times, want 0", allocs)
	}
}

// warmResolveTenant builds a churn-resolve head-end (120 channels, 40
// gateways) that carries a seeded lineup with three gateways away, and
// returns its installing re-solve, run until warm.
func warmResolveTenant(tb testing.TB) func() {
	tb.Helper()
	in, err := generator.CableTV{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25}.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		tb.Fatal(err)
	}
	tn, err := headend.NewTenant(in, pol)
	if err != nil {
		tb.Fatal(err)
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
	resolve := func() {
		out, err := tn.Resolve(core.Options{}, true)
		if err != nil {
			tb.Fatal(err)
		}
		if !out.Installed {
			tb.Fatal("steady-state re-solve did not install")
		}
	}
	// Reinstall swaps between two allocators, so two installs warm both.
	resolve()
	resolve()
	return resolve
}

// TestOfferStreamScaledAllocationFree pins an admitted catalog offer on
// a warm tenant at zero allocations: the admitted subscriber list is
// carved from the tenant's shared arrays, not allocated per offer.
func TestOfferStreamScaledAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	in, err := generator.CableTV{Channels: 20, Gateways: 6, Seed: 401, EgressFraction: 0.25}.Generate()
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
	s := -1
	for c := 0; c < in.NumStreams() && s < 0; c++ {
		if tn.OfferStreamScaled(c, 0.25) != nil {
			s = c
		}
		tn.DepartStream(c)
	}
	if s < 0 {
		t.Fatal("no admissible stream")
	}
	cycle := func() {
		if tn.OfferStreamScaled(s, 0.25) == nil {
			t.Fatal("warm offer rejected")
		}
		tn.DepartStream(s)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("admitted OfferStreamScaled and its departure allocate %.2f per cycle, want 0", avg)
	}
}

// TestUserChurnAllocationFree pins a warm leave-and-join cycle at zero
// allocations under the online and threshold policies. The gateway
// shares two streams with other gateways and is not the last holder of
// either, so the leave carves both shortened subscriber lists; the
// streams then depart and are offered again, so the gateway holds them
// for the next cycle. Offers and departures allocate nothing on their
// own (TestOfferStreamScaledAllocationFree).
func TestUserChurnAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	in, err := generator.CableTV{Channels: 20, Gateways: 6, Seed: 402, EgressFraction: 0.3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"online", "threshold"} {
		t.Run(policy, func(t *testing.T) {
			tn := newTenant(t, in, policy)
			for s := 0; s < in.NumStreams(); s++ {
				tn.OfferStream(s)
			}
			u, shared := sharedStreams(tn.Assignment())
			if u < 0 {
				t.Fatal("no gateway shares two streams ahead of another holder")
			}
			// The first leave also takes u off its other streams;
			// from then on it holds the two shared ones alone.
			tn.UserLeave(u)
			cycle := func() {
				tn.UserJoin(u)
				for _, s := range shared {
					tn.DepartStream(s)
				}
				for _, s := range shared {
					if users := tn.OfferStream(s); len(users) < 2 || users[0] != u {
						t.Fatalf("stream %d re-offered to %v, want gateway %d first of two or more", s, users, u)
					}
				}
				if got := tn.UserLeave(u); !slices.Equal(got, shared) {
					t.Fatalf("gateway %d left holding %v, want %v", u, got, shared)
				}
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Fatalf("warm leave, join and re-offer allocate %.2f per cycle, want 0", avg)
			}
		})
	}
}

// sharedStreams finds a gateway that is the first of two or more
// holders of at least two streams, and returns it with two of them
// (-1 when there is none).
func sharedStreams(a *mmd.Assignment) (int, []int) {
	for u := 0; u < a.NumUsers(); u++ {
		var shared []int
		for _, s := range a.UserView(u) {
			first, holders := -1, 0
			for v := 0; v < a.NumUsers(); v++ {
				if a.Has(v, s) {
					if first < 0 {
						first = v
					}
					holders++
				}
			}
			if first == u && holders >= 2 {
				shared = append(shared, s)
			}
		}
		if len(shared) >= 2 {
			return u, shared[:2]
		}
	}
	return -1, nil
}
