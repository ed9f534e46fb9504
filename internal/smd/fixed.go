package smd

import (
	"fmt"
	"math"
)

// FixedResult is the output of FixedGreedy and PartialEnum: a feasible
// assignment plus the intermediate candidates, exposed so experiments
// can measure each piece of the Theorem 2.8 construction.
type FixedResult struct {
	// Best is the best feasible candidate.
	Best *Assignment
	// BestValue is w(Best) (caps never bind on feasible assignments, so
	// this is also the plain utility sum).
	BestValue float64
	// A1 is the greedy assignment minus each user's last stream.
	A1 *Assignment
	// A2 assigns each user only its last greedy stream.
	A2 *Assignment
	// AMax is the best single-stream assignment.
	AMax *Assignment
	// Greedy is the raw greedy result the candidates were derived from
	// (nil for PartialEnum seeds other than the winning one).
	Greedy *Result
	// SemiBestValue is max(w(greedy), w(AMax)) — the semi-feasible value
	// Lemma 2.6 bounds by (e-1)/2e · OPT.
	SemiBestValue float64
}

// bestSingleStream builds Amax into a: the single stream S maximizing
// w(S) = sum_u min(W_u, w_u(S)), assigned to every interested user.
// a is empty if the instance has no streams.
func bestSingleStream(in *Instance, a *Assignment) (*Assignment, float64) {
	best, bestVal := -1, -1.0
	for s := 0; s < in.NumStreams(); s++ {
		if v := in.StreamValue(s); v > bestVal {
			best, bestVal = s, v
		}
	}
	a.Reset(in.NumUsers())
	if best < 0 {
		return a, 0
	}
	for u := 0; u < in.NumUsers(); u++ {
		if in.Utility[u][best] > 0 {
			a.Add(u, best)
		}
	}
	return a, a.Value(in)
}

// splitCandidates derives the feasible candidates A1 and A2 from a
// greedy result into a1 and a2 (Theorem 2.8): for every oversaturated
// user, A1(u) = A(u) \ {last stream of u} and A2(u) = {last stream of u}.
// Users within their cap keep their full set in A1 (a strict improvement
// over splitting unconditionally that preserves the theorem: both
// candidates are feasible and their values still sum to at least w(A)).
func splitCandidates(in *Instance, res *Result, a1, a2 *Assignment) (*Assignment, *Assignment) {
	a1.CopyFrom(&res.Semi.Assignment)
	a2.Reset(res.Semi.NumUsers())
	for u, last := range res.LastAssigned {
		if last < 0 {
			continue
		}
		if res.Semi.UserSum(in, u) <= in.Caps[u]*(1+capTolerance)+capTolerance {
			continue // user is feasible as-is
		}
		a1.Remove(u, last)
		a2.Add(u, last)
	}
	return a1, a2
}

// pickBest returns the candidate with the largest value.
func pickBest(in *Instance, candidates ...*Assignment) (*Assignment, float64) {
	var best *Assignment
	bestVal := math.Inf(-1)
	for _, c := range candidates {
		if c == nil {
			continue
		}
		if v := c.Value(in); v > bestVal {
			best, bestVal = c, v
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, bestVal
}

// FixedGreedy runs Algorithm 1 and repairs its output into a feasible
// assignment by taking the best of A1, A2, and AMax (Theorem 2.8). The
// result is a 3e/(e-1) ≈ 4.746 approximation; SemiBestValue additionally
// carries the 2e/(e-1) semi-feasible guarantee of Lemma 2.6.
//
// The greedy phase runs through LazyGreedy (CELF lazy evaluation): it
// selects the identical stream sequence as the eager O(|S|²) scan —
// submodularity makes stale residuals valid upper bounds and the
// tie-breaking matches, see lazy.go — but only refreshes the heap top.
// TestFixedGreedyLazySelectionEquivalence enforces the equivalence on
// randomized instances.
func FixedGreedy(in *Instance) (*FixedResult, error) {
	return new(Workspace).FixedGreedy(in)
}

// Workspace carries FixedGreedy's buffers from one run to the next: the
// greedy engine, the lazy heap, the three candidates and the results.
// A caller that solves instance after instance (a band of every
// re-solve) reuses one and allocates nothing once it is warm. The zero
// value is ready to use. A Workspace is not safe for concurrent use,
// and what a run returns is the workspace's own, valid until its next
// run; FixedGreedy and LazyGreedy run on a fresh one, so their results
// belong to the caller.
type Workspace struct {
	engine       greedyEngine
	heap         lazyHeap
	res          *Result
	fixed        *FixedResult
	a1, a2, amax *Assignment
}

// FixedGreedy is the package FixedGreedy run on the workspace.
func (w *Workspace) FixedGreedy(in *Instance) (*FixedResult, error) {
	res, err := w.lazyGreedy(in)
	if err != nil {
		return nil, err
	}
	if w.fixed == nil {
		w.fixed = new(FixedResult)
		w.a1, w.a2, w.amax = new(Assignment), new(Assignment), new(Assignment)
	}
	a1, a2 := splitCandidates(in, res, w.a1, w.a2)
	amax, amaxVal := bestSingleStream(in, w.amax)
	best, bestVal := pickBest(in, a1, a2, amax)
	*w.fixed = FixedResult{
		Best:          best,
		BestValue:     bestVal,
		A1:            a1,
		A2:            a2,
		AMax:          amax,
		Greedy:        res,
		SemiBestValue: math.Max(res.SemiValue, amaxVal),
	}
	return w.fixed, nil
}

// PartialEnum implements the Section 2.3 algorithm (after Sviridenko):
// for every seed set of at most seedSize streams that fits in the budget,
// complete the assignment greedily and keep the best semi-feasible
// candidate; then repair it with the A1/A2/AMax split. seedSize = 3
// yields the e/(e-1) semi-feasible and 2e/(e-1) feasible guarantees at
// O(n^{seedSize}) times the cost of one greedy run.
func PartialEnum(in *Instance, seedSize int) (*FixedResult, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("smd: partial enumeration: %w", err)
	}
	if seedSize < 0 {
		return nil, fmt.Errorf("smd: partial enumeration: negative seed size %d", seedSize)
	}

	var bestRes *Result
	consider := func(res *Result) {
		if bestRes == nil || res.SemiValue > bestRes.SemiValue {
			bestRes = res
		}
	}
	consider(newGreedyEngine(in).run(nil))

	seed := make([]int, 0, seedSize)
	var enumerate func(next int, cost float64)
	enumerate = func(next int, cost float64) {
		if len(seed) > 0 {
			consider(newGreedyEngine(in).run(seed))
		}
		if len(seed) == seedSize {
			return
		}
		for s := next; s < in.NumStreams(); s++ {
			c := in.Costs[s]
			if cost+c > in.Budget+capTolerance {
				continue
			}
			seed = append(seed, s)
			enumerate(s+1, cost+c)
			seed = seed[:len(seed)-1]
		}
	}
	enumerate(0, 0)

	a1, a2 := splitCandidates(in, bestRes, new(Assignment), new(Assignment))
	amax, amaxVal := bestSingleStream(in, new(Assignment))
	best, bestVal := pickBest(in, a1, a2, amax)
	return &FixedResult{
		Best:          best,
		BestValue:     bestVal,
		A1:            a1,
		A2:            a2,
		AMax:          amax,
		Greedy:        bestRes,
		SemiBestValue: math.Max(bestRes.SemiValue, amaxVal),
	}, nil
}
