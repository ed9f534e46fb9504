package smd

import (
	"fmt"
	"math"

	"repro/internal/buf"
)

// Result is the output of Greedy: the raw, possibly semi-feasible
// assignment of Algorithm 1 together with the bookkeeping the fix-up and
// the analysis need.
type Result struct {
	// Semi is the greedy assignment. It is semi-feasible: every user's
	// cap is respected except possibly by its last assigned stream.
	Semi *Assignment
	// SemiValue is the capped valuation w(Semi).
	SemiValue float64
	// LastAssigned[u] is the last stream greedy gave to user u, or -1.
	// Removing it restores per-user feasibility (Theorem 2.8's split).
	LastAssigned []int
	// AugmentedValue is w(A_k) + residual(S_{k+1}) at the moment the
	// first stream was dropped for exceeding the budget — the quantity
	// Lemma 2.2 lower-bounds by (1-1/e)·OPT. If no stream was ever
	// dropped it equals SemiValue.
	AugmentedValue float64
	// Iterations counts streams considered (= |S| for a full run).
	Iterations int
	// Order lists the selected streams in selection order. Greedy and
	// LazyGreedy must produce identical sequences (same argmax rule,
	// same tie-breaks); the equivalence tests assert it.
	Order []int
}

// greedyEngine runs Algorithm 1 with incremental residual-utility
// maintenance, giving the O(|S|·n) total running time of Section 2.1.
type greedyEngine struct {
	in      *Instance
	support [][]int // support[u]: streams with w_u(S) > 0
	usersOf [][]int // usersOf[s]: users with w_u(S) > 0

	userSum []float64 // current uncapped sum w_u(A)
	rem     []float64 // residual cap max(0, W_u - userSum[u])
	resid   []float64 // fractional residual utility of each stream
	done    []bool    // stream assigned or dropped
	last    []int     // last stream assigned to each user

	assn      *Assignment
	order     []int
	cost      float64
	value     float64
	augmented float64
	blocked   bool
	iters     int
}

func newGreedyEngine(in *Instance) *greedyEngine {
	e := new(greedyEngine)
	e.reset(in)
	return e
}

// reset readies the engine for a run on in, reusing its buffers.
func (e *greedyEngine) reset(in *Instance) {
	nS, nU := in.NumStreams(), in.NumUsers()
	e.in = in
	e.support = buf.Rows(e.support, nU)
	e.usersOf = buf.Rows(e.usersOf, nS)
	e.userSum = buf.Zeroed(e.userSum, nU)
	e.rem = buf.Zeroed(e.rem, nU)
	e.resid = buf.Zeroed(e.resid, nS)
	e.done = buf.Zeroed(e.done, nS)
	e.last = buf.Zeroed(e.last, nU)
	if e.assn == nil {
		e.assn = new(Assignment)
	}
	e.assn.Reset(nU)
	e.order = e.order[:0]
	e.cost, e.value, e.augmented, e.blocked, e.iters = 0, 0, 0, false, 0
	for u := 0; u < nU; u++ {
		e.rem[u] = in.Caps[u]
		e.last[u] = -1
		for s, w := range in.Utility[u] {
			if w > 0 {
				e.support[u] = append(e.support[u], s)
				e.usersOf[s] = append(e.usersOf[s], u)
			}
		}
	}
	for s := 0; s < nS; s++ {
		for _, u := range e.usersOf[s] {
			e.resid[s] += math.Min(in.Utility[u][s], e.rem[u])
		}
	}
}

// betterEffectiveness reports whether stream a has strictly larger cost
// effectiveness than stream b, using cross-multiplication so zero-cost
// streams (infinite effectiveness) need no special casing. Ties break
// toward larger residual, then smaller index, for determinism.
func (e *greedyEngine) betterEffectiveness(a, b int) bool {
	left := e.resid[a] * e.in.Costs[b]
	right := e.resid[b] * e.in.Costs[a]
	if left != right {
		return left > right
	}
	if e.resid[a] != e.resid[b] {
		return e.resid[a] > e.resid[b]
	}
	return a < b
}

// assign adds stream s to every unsaturated interested user and updates
// the residual utilities of the remaining streams incrementally.
func (e *greedyEngine) assign(s int) {
	e.done[s] = true
	e.order = append(e.order, s)
	e.cost += e.in.Costs[s]
	e.value += e.resid[s]
	e.resid[s] = 0
	for _, u := range e.usersOf[s] {
		if e.rem[u] <= 0 {
			continue // saturated: fractional residual utility is zero
		}
		w := e.in.Utility[u][s]
		oldRem := e.rem[u]
		e.userSum[u] += w
		e.rem[u] = math.Max(0, e.in.Caps[u]-e.userSum[u])
		e.assn.Add(u, s)
		e.last[u] = s
		// The user's residual cap shrank from oldRem to rem[u]; adjust
		// every not-yet-decided stream this user is interested in.
		for _, s2 := range e.support[u] {
			if e.done[s2] {
				continue
			}
			w2 := e.in.Utility[u][s2]
			e.resid[s2] += math.Min(w2, e.rem[u]) - math.Min(w2, oldRem)
		}
	}
}

// run executes Algorithm 1, optionally seeded with a set of streams that
// are assigned unconditionally first (used by PartialEnum). Seeds must
// jointly fit in the budget.
func (e *greedyEngine) run(seed []int) *Result {
	for _, s := range seed {
		if !e.done[s] {
			e.assign(s)
		}
	}
	nS := e.in.NumStreams()
	for {
		best := -1
		for s := 0; s < nS; s++ {
			if e.done[s] {
				continue
			}
			if best < 0 || e.betterEffectiveness(s, best) {
				best = s
			}
		}
		if best < 0 || e.resid[best] <= 0 {
			break // no remaining stream adds utility
		}
		e.iters++
		if e.cost+e.in.Costs[best] <= e.in.Budget+capTolerance {
			e.assign(best)
		} else {
			if !e.blocked {
				e.blocked = true
				e.augmented = e.value + e.resid[best]
			}
			e.done[best] = true // dropped: C <- C \ {S}
		}
	}
	return e.finish(new(Result))
}

// finish closes a run and fills r with its outcome. r's assignment and
// slices are the engine's own.
func (e *greedyEngine) finish(r *Result) *Result {
	if !e.blocked {
		e.augmented = e.value
	}
	*r = Result{
		Semi:           e.assn,
		SemiValue:      e.value,
		LastAssigned:   e.last,
		AugmentedValue: e.augmented,
		Iterations:     e.iters,
		Order:          e.order,
	}
	return r
}

// Greedy runs Algorithm 1 on the instance. The returned assignment is
// semi-feasible; use FixedGreedy for a feasible solution with the
// Theorem 2.8 guarantee. The instance must pass Validate.
func Greedy(in *Instance) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("smd: greedy: %w", err)
	}
	return newGreedyEngine(in).run(nil), nil
}
