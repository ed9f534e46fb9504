package smd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLazyGreedyMatchesEager: lazy evaluation must produce the same
// value as the eager engine (the selection rule is identical; only the
// evaluation schedule differs).
func TestLazyGreedyMatchesEager(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(141))}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomSMDInstance(r, 2+r.Intn(14), 1+r.Intn(6))
		eager, err := Greedy(in)
		if err != nil {
			return false
		}
		lazy, err := LazyGreedy(in)
		if err != nil {
			return false
		}
		const tol = 1e-9
		return abs(eager.SemiValue-lazy.SemiValue) < tol &&
			abs(eager.AugmentedValue-lazy.AugmentedValue) < tol
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestLazyGreedyIdenticalAssignments goes further on a batch of seeds:
// with deterministic tie-breaking the assignments themselves coincide.
func TestLazyGreedyIdenticalAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for trial := 0; trial < 30; trial++ {
		in := randomSMDInstance(rng, 12, 5)
		eager, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := LazyGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < in.NumUsers(); u++ {
			e, l := eager.Semi.UserStreams(u), lazy.Semi.UserStreams(u)
			if len(e) != len(l) {
				t.Fatalf("trial %d user %d: eager %v lazy %v", trial, u, e, l)
			}
			for i := range e {
				if e[i] != l[i] {
					t.Fatalf("trial %d user %d: eager %v lazy %v", trial, u, e, l)
				}
			}
		}
	}
}

func TestLazyGreedySemiFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	for trial := 0; trial < 20; trial++ {
		in := randomSMDInstance(rng, 15, 6)
		res, err := LazyGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Semi.CheckSemiFeasible(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLazyGreedyRejectsInvalid(t *testing.T) {
	in := handInstance()
	in.Budget = -1
	if _, err := LazyGreedy(in); err == nil {
		t.Fatal("LazyGreedy accepted an invalid instance")
	}
}

func TestLazyGreedyEmpty(t *testing.T) {
	res, err := LazyGreedy(&Instance{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SemiValue != 0 {
		t.Fatalf("empty instance value = %v", res.SemiValue)
	}
}

// TestFixedGreedyLazySelectionEquivalence enforces the property
// FixedGreedy's wiring relies on (its greedy phase now runs through
// LazyGreedy): on randomized instances the lazy and eager engines make
// the identical selection sequence — not merely the same final set —
// with identical values and last-assigned bookkeeping, so the full
// Theorem 2.8 fix-up (A1/A2/AMax) is unchanged by the swap.
func TestFixedGreedyLazySelectionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	for trial := 0; trial < 60; trial++ {
		in := randomSMDInstance(rng, 2+rng.Intn(25), 1+rng.Intn(8))
		eager, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := LazyGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(eager.Order) != len(lazy.Order) {
			t.Fatalf("trial %d: selection sequences %v vs %v", trial, eager.Order, lazy.Order)
		}
		for i := range eager.Order {
			if eager.Order[i] != lazy.Order[i] {
				t.Fatalf("trial %d: selection sequences diverge at %d: %v vs %v",
					trial, i, eager.Order, lazy.Order)
			}
		}
		if eager.SemiValue != lazy.SemiValue || eager.AugmentedValue != lazy.AugmentedValue {
			t.Fatalf("trial %d: values diverged: %v/%v vs %v/%v", trial,
				eager.SemiValue, eager.AugmentedValue, lazy.SemiValue, lazy.AugmentedValue)
		}
		for u := range eager.LastAssigned {
			if eager.LastAssigned[u] != lazy.LastAssigned[u] {
				t.Fatalf("trial %d: LastAssigned[%d] = %d vs %d", trial, u,
					eager.LastAssigned[u], lazy.LastAssigned[u])
			}
		}

		// The repaired result must therefore also be identical to one
		// built from the eager engine's output.
		fixed, err := FixedGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		a1, a2 := splitCandidates(in, eager, new(Assignment), new(Assignment))
		amax, _ := bestSingleStream(in, new(Assignment))
		best, bestVal := pickBest(in, a1, a2, amax)
		if fixed.BestValue != bestVal {
			t.Fatalf("trial %d: FixedGreedy value diverged from eager-built fix-up: %v vs %v",
				trial, fixed.BestValue, bestVal)
		}
		for u := 0; u < in.NumUsers(); u++ {
			got, want := fixed.Best.UserStreams(u), best.UserStreams(u)
			if len(got) != len(want) {
				t.Fatalf("trial %d user %d: fixed %v, eager-built %v", trial, u, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d user %d: fixed %v, eager-built %v", trial, u, got, want)
				}
			}
		}
	}
}

func BenchmarkLazyVsEagerGreedy(b *testing.B) {
	in := benchInstance(b, 400, 50)
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Greedy(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LazyGreedy(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}
