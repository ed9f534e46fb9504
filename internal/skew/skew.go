// Package skew implements the classify-and-select reduction of Section 3
// of Patt-Shamir & Rawitz: an SMD instance with arbitrary local skew
// alpha is decomposed into t = 1 + floor(log2 alpha) unit-skew SMD
// sub-instances, one per utility-per-load band [2^{i-1}, 2^i). Solving
// each band with a constant-factor unit-skew algorithm and keeping the
// best solution yields an O(log 2*alpha)-approximation (Theorem 3.1).
//
// Pairs whose load is zero (a stream that consumes none of a user's
// capacity, e.g. after the Section 4 reduction when the user has no
// finite capacity at all) have unbounded utility-per-load ratio. They
// are collected in a separate "free" band whose sub-instance carries the
// original utilities with an infinite cap — exact for those pairs, since
// they never contend for user capacity. This adds at most one band to
// the paper's t.
package skew

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/mmd"
	"repro/internal/smd"
)

// ErrNotSMD is returned when the input instance has more than one server
// budget or more than one capacity measure at some user.
var ErrNotSMD = errors.New("skew: instance is not single-budget single-capacity")

// FreeBand is the band index of the zero-load pairs.
const FreeBand = 0

// Band is one unit-skew sub-instance of the decomposition.
type Band struct {
	// Index is the band number: FreeBand for zero-load pairs, otherwise
	// i in [1, t] meaning normalized utility-per-load ratios in
	// [2^{i-1}, 2^i).
	Index int
	// Instance is the unit-skew SMD sub-instance. For loaded bands the
	// utilities are the normalized loads and the cap is the user's
	// capacity (w^i_u = k_u, W^i_u = K^u); for the free band the
	// utilities are the original utilities with an infinite cap.
	Instance *smd.Instance
	// Pairs counts the (user, stream) pairs carried by this band.
	Pairs int
}

// Decomposition is the result of Decompose.
type Decomposition struct {
	// Normalized is the load-normalized copy of the input instance
	// (same feasible assignments and values as the original).
	Normalized *mmd.Instance
	// Alpha is the local skew of the input over its finitely-skewed
	// pairs (1 when every pair is free or exactly proportional).
	Alpha float64
	// Bands are the non-empty sub-instances; at most
	// 2 + floor(log2 Alpha) of them (the paper's t plus the free band).
	Bands []Band
}

// Decompose splits an SMD instance (one server budget, at most one
// capacity measure per user) with arbitrary skew into unit-skew bands.
// Every (user, stream) pair with positive utility lands in exactly one
// band, so the sum of band optima is at least half the original optimum
// (proof of Theorem 3.1).
func Decompose(in *mmd.Instance) (*Decomposition, error) {
	return new(Workspace).Decompose(in)
}

// Workspace carries Decompose's buffers from one call to the next: the
// normalized copy, the band map and every band's rows. The zero value is
// ready to use. A Workspace is not safe for concurrent use, and the
// decomposition it returns is its own, valid until its next Decompose;
// the package Decompose runs on a fresh one, so its result belongs to
// the caller.
type Workspace struct {
	dec    *Decomposition
	bandOf []int // bandOf[u*nS+s]: band of the pair, or -1 when w_u(S) = 0
	counts []int // pairs per band; index 0 is the free band
	names  []string
	costs  []float64
	subs   []*smd.Instance // band sub-instances, in band order
}

// Decompose is the package Decompose run on the workspace.
func (ws *Workspace) Decompose(in *mmd.Instance) (*Decomposition, error) {
	if !in.IsSMD() {
		return nil, fmt.Errorf("m=%d, mc=%d: %w", in.M(), in.MC(), ErrNotSMD)
	}
	if ws.dec == nil {
		ws.dec = &Decomposition{Normalized: new(mmd.Instance)}
	}
	norm := ws.dec.Normalized
	in.CloneInto(norm)
	nS, nU := norm.NumStreams(), norm.NumUsers()

	// Per-user normalization over loaded pairs: scale the load row and
	// capacity so the smallest utility-per-load ratio is exactly 1.
	// Zero-load pairs are skipped (they go to the free band).
	alpha := 1.0
	for u := 0; u < nU; u++ {
		usr := &norm.Users[u]
		if len(usr.Loads) != 1 {
			continue
		}
		minRatio, maxRatio := math.Inf(1), 0.0
		for s, w := range usr.Utility {
			if w <= 0 {
				continue
			}
			if k := usr.Loads[0][s]; k > 0 {
				r := w / k
				minRatio = math.Min(minRatio, r)
				maxRatio = math.Max(maxRatio, r)
			}
		}
		if maxRatio == 0 {
			continue // all pairs free on this measure
		}
		for s := range usr.Loads[0] {
			usr.Loads[0][s] *= minRatio
		}
		if !math.IsInf(usr.Capacities[0], 1) {
			usr.Capacities[0] *= minRatio
		}
		alpha = math.Max(alpha, maxRatio/minRatio)
	}

	t := 1 + int(math.Floor(math.Log2(alpha)))
	if t < 1 {
		t = 1
	}

	counts := buf.Zeroed(ws.counts, t+1)
	bandOf := buf.Grow(ws.bandOf, nU*nS) // every entry is written below
	ws.counts, ws.bandOf = counts, bandOf
	for u := 0; u < nU; u++ {
		usr := &norm.Users[u]
		for s, w := range usr.Utility {
			bandOf[u*nS+s] = -1
			if w <= 0 {
				continue
			}
			b := FreeBand
			if len(usr.Loads) == 1 && usr.Loads[0][s] > 0 {
				// After normalization w/k >= 1, so log2 >= 0.
				r := w / usr.Loads[0][s]
				b = int(math.Floor(math.Log2(r))) + 1
				if b < 1 {
					b = 1
				}
				if b > t {
					b = t
				}
			}
			bandOf[u*nS+s] = b
			counts[b]++
		}
	}

	names := buf.Grow(ws.names, nS)
	costs := buf.Grow(ws.costs, nS)
	ws.names, ws.costs = names, costs
	for s := range norm.Streams {
		names[s] = norm.Streams[s].Name
		costs[s] = norm.Streams[s].Costs[0]
	}

	dec := ws.dec
	dec.Alpha = alpha
	dec.Bands = dec.Bands[:0]
	for b := 0; b <= t; b++ {
		if counts[b] == 0 {
			continue
		}
		if len(dec.Bands) == len(ws.subs) {
			ws.subs = append(ws.subs, new(smd.Instance))
		}
		sub := ws.subs[len(dec.Bands)]
		sub.StreamNames = names
		sub.Costs = costs
		sub.Budget = norm.Budgets[0]
		sub.Utility = buf.Grow(sub.Utility, nU)
		sub.Caps = buf.Grow(sub.Caps, nU)
		pairs := 0
		for u := 0; u < nU; u++ {
			usr := &norm.Users[u]
			row := buf.Zeroed(sub.Utility[u], nS)
			cap := math.Inf(1)
			if b != FreeBand && len(usr.Loads) == 1 {
				cap = usr.Capacities[0]
			}
			for s := range row {
				if bandOf[u*nS+s] != b {
					continue
				}
				pairs++
				if b == FreeBand {
					row[s] = usr.Utility[s] // zero-load pair: exact
				} else {
					row[s] = usr.Loads[0][s] // w^i_u = k_u
				}
			}
			sub.Utility[u] = row
			sub.Caps[u] = cap
		}
		dec.Bands = append(dec.Bands, Band{Index: b, Instance: sub, Pairs: pairs})
	}
	return dec, nil
}

// BandSolver solves one unit-skew SMD sub-instance; it must return a
// feasible assignment. smd.FixedGreedy (wrapped by DefaultBandSolver) is
// the paper's choice.
type BandSolver func(*smd.Instance) (*smd.Assignment, error)

// DefaultBandSolver applies smd.FixedGreedy.
func DefaultBandSolver(in *smd.Instance) (*smd.Assignment, error) {
	res, err := smd.FixedGreedy(in)
	if err != nil {
		return nil, err
	}
	return res.Best, nil
}

// Report describes a Solve run.
type Report struct {
	// Alpha is the local skew of the input.
	Alpha float64
	// Bands is the number of non-empty bands solved.
	Bands int
	// BandValues[i] is the value, under the ORIGINAL utilities, of the
	// candidate produced by band i (parallel to the decomposition's
	// Bands slice).
	BandValues []float64
	// BestBand is the band index whose candidate won.
	BestBand int
	// Value is the value of the returned assignment.
	Value float64
}

// Solve runs the full Theorem 3.1 pipeline: decompose into bands, solve
// each with the given solver (nil selects DefaultBandSolver), evaluate
// every candidate under the original utilities, and return the best
// feasible assignment for the original instance.
func Solve(in *mmd.Instance, solver BandSolver) (*mmd.Assignment, *Report, error) {
	if solver == nil {
		solver = DefaultBandSolver
	}
	dec, err := Decompose(in)
	if err != nil {
		return nil, nil, err
	}
	report := &Report{
		Alpha:      dec.Alpha,
		Bands:      len(dec.Bands),
		BandValues: make([]float64, len(dec.Bands)),
		BestBand:   -1,
	}
	var best *mmd.Assignment
	bestVal := math.Inf(-1)
	for i, band := range dec.Bands {
		sub, err := solver(band.Instance)
		if err != nil {
			return nil, nil, fmt.Errorf("skew: band %d: %w", band.Index, err)
		}
		cand := &sub.Assignment
		if err := cand.CheckFeasible(dec.Normalized); err != nil {
			return nil, nil, fmt.Errorf("skew: band %d produced infeasible assignment: %w", band.Index, err)
		}
		v := cand.Utility(in)
		report.BandValues[i] = v
		if v > bestVal {
			best, bestVal = cand, v
			report.BestBand = band.Index
		}
	}
	if best == nil {
		best = mmd.NewAssignment(in.NumUsers())
		bestVal = 0
	}
	report.Value = bestVal
	return best, report, nil
}
