// Package core assembles the paper's algorithms into the end-to-end
// solver of Theorem 1.1: reduce the multi-budget instance to a
// single-budget one (Section 4), decompose by skew band (Section 3),
// solve each band with the fixed greedy (Section 2), lift every band
// candidate back through the output transformation, and return the best
// feasible assignment. The overall guarantee is
// O(m * m_c * log(2*alpha*m_c)) with O(n^2) running time.
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/buf"
	"repro/internal/mmd"
	"repro/internal/reduction"
	"repro/internal/skew"
	"repro/internal/smd"
)

// Algorithm selects the SMD building block used inside the pipeline.
type Algorithm int

// Available building blocks.
const (
	// AlgoFixedGreedy is the O(n^2) Theorem 2.8 algorithm (default).
	AlgoFixedGreedy Algorithm = iota + 1
	// AlgoPartialEnum is the slower Section 2.3 algorithm with the
	// sharper constant.
	AlgoPartialEnum
)

// Options configures Solve.
type Options struct {
	// Algorithm selects the unit-skew SMD solver (default
	// AlgoFixedGreedy).
	Algorithm Algorithm
	// SeedSize is the partial-enumeration seed size (default 2) when
	// Algorithm is AlgoPartialEnum.
	SeedSize int
	// PaperFaithfulLift uses the literal Theorem 4.3 output
	// transformation (keep a single candidate set) instead of the
	// default greedy-merging lift, which admits candidate sets in
	// utility order while the true budgets hold. The merging lift never
	// returns less utility, so the guarantee is unchanged; this knob
	// exists for the lift ablation experiment.
	PaperFaithfulLift bool
}

// Report describes a Solve run.
type Report struct {
	// Value is the utility of the returned assignment.
	Value float64
	// Alpha is the local skew of the reduced single-budget instance
	// (at most m_c times the original instance's skew, Lemma 4.1).
	Alpha float64
	// Bands is the number of skew bands solved.
	Bands int
	// BandValues[i] is the lifted value of band i's candidate.
	BandValues []float64
	// SingleStreamValue is the value of the best single-stream fallback
	// candidate (always feasible because c_i(S) <= B_i).
	SingleStreamValue float64
	// DirectGreedyValue is the value of the implementation-added
	// utility-aware direct greedy candidate (0 in paper-faithful mode).
	DirectGreedyValue float64
	// ApproxFactor is the a-priori guarantee for this instance: with the
	// fixed greedy as the building block, (2m-1)(2mc-1) * t * (3e/(e-1))
	// where t = 1 + floor(log2 alpha) is the number of bands.
	ApproxFactor float64
}

// Solve runs the full Theorem 1.1 pipeline and returns a feasible
// assignment for the instance. The instance must pass mmd.Validate;
// utilities of streams a user cannot hold should already be zero (run
// ZeroOverloadedUtilities first if unsure).
func Solve(in *mmd.Instance, opts Options) (*mmd.Assignment, *Report, error) {
	return new(Workspace).Solve(in, opts)
}

// Workspace carries every stage's buffers from one Solve to the next:
// the reduced instance, the band decomposition, each band's greedy and
// lift, and the fallback candidates. A caller that re-solves instance
// after instance (a head-end tenant) keeps one and allocates little
// beyond the band fan-out's goroutines once it is warm. The zero value
// is ready to use.
//
// A Workspace is not safe for concurrent use. What its Solve returns —
// the assignment and the report — is the workspace's own, valid until
// its next Solve; the package Solve runs on a fresh one, so its results
// belong to the caller.
type Workspace struct {
	reduce reduction.Workspace
	decomp skew.Workspace
	// bands[i] is band i's scratch; each band goroutine touches only
	// its own.
	bands  []*bandSlot
	report *Report

	// The fallback candidates' scratch.
	interested           [][]int
	single, direct       *mmd.Assignment
	users, bestUsers     []int
	budgetLeft, normCost []float64
	capLeft              [][]float64
	chosen               []bool
}

// bandSlot is one band's solve and lift.
type bandSlot struct {
	greedy smd.Workspace
	lift   reduction.Workspace
	lifted *mmd.Assignment
	value  float64
	err    error
}

// solve runs the band's unit-skew solver and lifts its candidate back to
// the original instance (Theorem 4.3).
func (b *bandSlot) solve(view *reduction.View, band skew.Band, opts Options) {
	b.lifted, b.value, b.err = nil, 0, nil
	var res *smd.FixedResult
	var err error
	if opts.Algorithm == AlgoPartialEnum {
		seedSize := opts.SeedSize
		if seedSize == 0 {
			seedSize = 2
		}
		res, err = smd.PartialEnum(band.Instance, seedSize)
	} else {
		res, err = b.greedy.FixedGreedy(band.Instance)
	}
	if err != nil {
		b.err = fmt.Errorf("core: band %d: %w", band.Index, err)
		return
	}
	var lifted *mmd.Assignment
	if opts.PaperFaithfulLift {
		lifted, _, err = reduction.Lift(view, &res.Best.Assignment)
	} else {
		lifted, _, err = b.lift.LiftGreedy(view, &res.Best.Assignment)
	}
	if err != nil {
		b.err = fmt.Errorf("core: band %d: %w", band.Index, err)
		return
	}
	b.lifted, b.value = lifted, lifted.Utility(view.Orig)
}

// Solve is the package Solve run on the workspace.
func (w *Workspace) Solve(in *mmd.Instance, opts Options) (*mmd.Assignment, *Report, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}

	// Step 1 (Section 4.1): multi-budget -> single-budget.
	view, err := w.reduce.ToSMD(in)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}

	// Step 2 (Section 3): decompose the reduced instance by skew band.
	dec, err := w.decomp.Decompose(view.SMD)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}

	if w.report == nil {
		w.report = new(Report)
	}
	report := w.report
	*report = Report{
		Alpha:      dec.Alpha,
		Bands:      len(dec.Bands),
		BandValues: buf.Zeroed(report.BandValues, len(dec.Bands)),
	}

	// Step 3+4: solve each band (Section 2) and lift each candidate back
	// to the original multi-budget instance (Theorem 4.3). Lifting every
	// candidate and comparing final values dominates the paper's
	// "pick the best band first, lift once" order. Bands are independent,
	// so they are solved concurrently, each in its own slot; the winner
	// is chosen by an in-order scan afterwards, keeping results
	// bit-for-bit deterministic.
	for len(w.bands) < len(dec.Bands) {
		w.bands = append(w.bands, new(bandSlot))
	}
	var wg sync.WaitGroup
	for i := range dec.Bands {
		wg.Add(1)
		go func(b *bandSlot, band skew.Band) {
			defer wg.Done()
			b.solve(view, band, opts)
		}(w.bands[i], dec.Bands[i])
	}
	wg.Wait()

	var best *mmd.Assignment
	bestVal := math.Inf(-1)
	for i := range dec.Bands {
		b := w.bands[i]
		if b.err != nil {
			return nil, nil, b.err
		}
		report.BandValues[i] = b.value
		if b.value > bestVal {
			best, bestVal = b.lifted, b.value
		}
	}

	// Safety net: the best single-stream assignment is always feasible
	// (c_i(S) <= B_i and zero-overloaded utilities), and covers the
	// degenerate cases (no bands, empty candidates).
	w.interested = in.InterestedUsersInto(w.interested)
	single, singleVal := w.bestSingleStream(in, w.interested)
	report.SingleStreamValue = singleVal
	if singleVal > bestVal {
		best, bestVal = single, singleVal
	}

	// Implementation-added candidate: utility-aware greedy directly on
	// the multi-budget instance (no own guarantee; taking the max over
	// candidates preserves the pipeline's). Disabled in paper-faithful
	// mode so ablations can isolate the paper's algorithm.
	if !opts.PaperFaithfulLift {
		direct := w.directGreedy(in, w.interested)
		if v := direct.Utility(in); v > bestVal {
			best, bestVal = direct, v
		}
		report.DirectGreedyValue = direct.Utility(in)
	}
	if best == nil {
		best = mmd.NewAssignment(in.NumUsers())
		bestVal = 0
	}
	if err := best.CheckFeasible(in); err != nil {
		return nil, nil, fmt.Errorf("core: internal error, result infeasible: %w", err)
	}

	report.Value = bestVal
	report.ApproxFactor = approxFactor(in, dec.Alpha)
	return best, report, nil
}

// approxFactor returns the a-priori Theorem 4.4 guarantee for this
// instance with the fixed greedy building block.
func approxFactor(in *mmd.Instance, alpha float64) float64 {
	m := float64(in.M())
	mc := float64(in.MC())
	if mc < 1 {
		mc = 1
	}
	bands := 1 + math.Floor(math.Log2(math.Max(alpha, 1)))
	const greedyFactor = 3 * math.E / (math.E - 1)
	return (2*m - 1) * (2*mc - 1) * bands * greedyFactor
}

// bestSingleStream returns the single stream maximizing total utility
// over the users that can feasibly hold it, assigned to those users.
// interested is in.InterestedUsers().
func (w *Workspace) bestSingleStream(in *mmd.Instance, interested [][]int) (*mmd.Assignment, float64) {
	bestS, bestVal := -1, 0.0
	users, bestUsers := w.users[:0], w.bestUsers[:0]
	for s := 0; s < in.NumStreams(); s++ {
		val := 0.0
		users = users[:0]
		for _, u := range interested[s] {
			usr := &in.Users[u]
			fits := true
			for j := range usr.Capacities {
				if usr.Loads[j][s] > usr.Capacities[j]+1e-12 {
					fits = false
					break
				}
			}
			if fits {
				val += usr.Utility[s]
				users = append(users, u)
			}
		}
		if val > bestVal {
			bestS, bestVal = s, val
			users, bestUsers = bestUsers, users
		}
	}
	w.users, w.bestUsers = users, bestUsers
	if w.single == nil {
		w.single = new(mmd.Assignment)
	}
	a := w.single
	a.Reset(in.NumUsers())
	if bestS >= 0 {
		for _, u := range bestUsers {
			a.Add(u, bestS)
		}
	}
	return a, bestVal
}
