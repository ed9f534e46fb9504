// Package reduction implements Section 4 of Patt-Shamir & Rawitz: the
// reduction from the Multi-Budget Multi-Client Distribution problem to
// the single-budget problem.
//
// The input transformation (ToSMD) normalizes every server cost by its
// budget and sums them into one cost with budget m, and does the same per
// user with capacities (budget m_c). The output transformation (Lift)
// turns a feasible SMD solution — which may exceed each original budget
// by a factor of up to m and each capacity by up to m_c (Lemma 4.2) —
// back into a feasible MMD assignment via interval decomposition
// (Fig. 3), losing at most a (2m-1)(2m_c-1) factor (Theorem 4.3).
// TightnessInstance generates the Section 4.2 family on which this loss
// is essentially attained.
package reduction

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/mmd"
)

// ErrNoFiniteBudget is returned when the instance has no finite server
// budget; the reduction (and the problem) is trivial in that case.
var ErrNoFiniteBudget = errors.New("reduction: no finite server budget")

// View ties a reduced single-budget instance to its multi-budget origin.
type View struct {
	// Orig is the original multi-budget instance (not copied; callers
	// must not mutate it while the view is alive).
	Orig *mmd.Instance
	// SMD is the reduced instance: one server budget equal to the number
	// of finite measures, and at most one capacity measure per user.
	SMD *mmd.Instance
	// FiniteBudgets lists the original measures with finite budgets.
	FiniteBudgets []int
	// FiniteCaps[u] lists user u's capacity measures with finite caps.
	FiniteCaps [][]int
}

// ToSMD applies the Section 4.1 input transformation:
//
//	c(S)   = sum_i c_i(S)/B_i     with budget B = m
//	k^u(S) = sum_j k^u_j(S)/K^u_j with capacity K^u = m_c(u)
//
// over the finite measures only (an infinite budget never constrains and
// contributes zero normalized cost). Users whose finite capacity count is
// zero receive no capacity measure in the reduced instance.
func ToSMD(in *mmd.Instance) (*View, error) {
	return new(Workspace).ToSMD(in)
}

// Workspace carries the buffers of ToSMD and LiftGreedy from one call to
// the next, so a caller that reduces and lifts instance after instance
// allocates nothing once warm. The zero value is ready to use. A
// Workspace is not safe for concurrent use — give every goroutine that
// lifts its own — and what it returns is its own, valid until its next
// call of the same method; the package functions run on a fresh one,
// so their results belong to the caller.
type Workspace struct {
	view *View

	// LiftGreedy's scratch.
	report              *Report
	chosen              *mmd.Assignment
	s1, s2              []int
	candidates, sets    [][]int
	scored              []scoredSet
	counts              []int
	holders             [][]int
	budgetLeft, setCost []float64
	capLeft, setLoad    []float64
	streams, big, small []int
	keep                []bool
}

// ToSMD is the package ToSMD run on the workspace.
func (w *Workspace) ToSMD(in *mmd.Instance) (*View, error) {
	if w.view == nil {
		w.view = &View{SMD: new(mmd.Instance)}
	}
	v := w.view
	finite := v.FiniteBudgets[:0]
	for i, b := range in.Budgets {
		if !math.IsInf(b, 1) {
			finite = append(finite, i)
		}
	}
	v.FiniteBudgets = finite
	if len(finite) == 0 {
		return nil, ErrNoFiniteBudget
	}
	m := len(finite)

	nS := in.NumStreams()
	out := v.SMD
	out.Streams = buf.Grow(out.Streams, nS)
	out.Users = buf.Grow(out.Users, in.NumUsers())
	out.Budgets = append(out.Budgets[:0], float64(m))
	v.FiniteCaps = buf.Grow(v.FiniteCaps, in.NumUsers())

	// Every row is fitted from one slab per element type: the users'
	// load-row headers first, since the load rows they hold are sized
	// with the other float rows.
	var headers buf.Slab[[]float64]
	for u := range in.Users {
		headers.Need(out.Users[u].Loads, loadRows(&in.Users[u]))
	}
	for u := range in.Users {
		out.Users[u].Loads = headers.Fit(out.Users[u].Loads, loadRows(&in.Users[u]))
	}
	var floats buf.Slab[float64]
	var ints buf.Slab[int]
	for s := range out.Streams {
		floats.Need(out.Streams[s].Costs, 1)
	}
	for u := range in.Users {
		fin, nu := finiteCaps(&in.Users[u]), &out.Users[u]
		ints.Need(v.FiniteCaps[u], fin)
		floats.Need(nu.Utility, nS)
		if fin > 0 {
			floats.Need(nu.Loads[0], nS)
		}
		floats.Need(nu.Capacities, loadRows(&in.Users[u]))
	}

	for s := range in.Streams {
		c := 0.0
		for _, i := range finite {
			c += in.Streams[s].Costs[i] / in.Budgets[i]
		}
		st := &out.Streams[s]
		st.Name = in.Streams[s].Name
		st.Costs = floats.Fit(st.Costs, 1)
		st.Costs[0] = c
	}
	for u := range in.Users {
		usr := &in.Users[u]
		fin := ints.Fit(v.FiniteCaps[u], finiteCaps(usr))[:0]
		for j, k := range usr.Capacities {
			if !math.IsInf(k, 1) {
				fin = append(fin, j)
			}
		}
		v.FiniteCaps[u] = fin
		nu := &out.Users[u]
		nu.Name = usr.Name
		nu.Utility = floats.Fit(nu.Utility, nS)
		copy(nu.Utility, usr.Utility)
		nu.Capacities = floats.Fit(nu.Capacities, loadRows(usr))
		if len(fin) == 0 {
			continue
		}
		row := floats.Fit(nu.Loads[0], nS)
		clear(row)
		for _, j := range fin {
			capJ := usr.Capacities[j]
			for s, k := range usr.Loads[j] {
				row[s] += k / capJ
			}
		}
		nu.Loads[0] = row
		nu.Capacities[0] = float64(len(fin))
	}
	v.Orig = in
	return v, nil
}

// finiteCaps counts the user's finite capacities.
func finiteCaps(usr *mmd.User) int {
	n := 0
	for _, k := range usr.Capacities {
		if !math.IsInf(k, 1) {
			n++
		}
	}
	return n
}

// loadRows is the number of load rows, and of capacities, the user has
// in the reduced instance: one when a capacity is finite, else none.
func loadRows(usr *mmd.User) int { return min(finiteCaps(usr), 1) }

// intervalTolerance guards the boundary tests of the interval
// decomposition against floating-point drift.
const intervalTolerance = 1e-12

// intervalSets implements the Fig. 3 decomposition: items (with weights
// < 1, in the given order) are laid on the real line; every item whose
// interval strictly contains an integer point becomes a singleton set,
// and maximal runs between integer points form the remaining sets. Every
// set has total weight at most 1, and when sum(weights) <= W there are
// at most 2W-1 sets. Each set is a run of consecutive items, so the sets
// are appended to dst as capacity-capped subslices of items.
func intervalSets(dst [][]int, items []int, weight func(int) float64) [][]int {
	open := 0 // first item of the open run
	flush := func(end int) {
		if end > open {
			dst = append(dst, items[open:end:end])
		}
		open = end
	}
	cum := 0.0
	for k, it := range items {
		w := weight(it)
		start, end := cum, cum+w
		boundary := math.Floor(start) + 1
		if end > boundary+intervalTolerance {
			// The item strictly spans the integer point: singleton.
			flush(k)
			flush(k + 1)
		} else if end >= boundary-intervalTolerance {
			// The item ends exactly on the boundary; the unit
			// interval is complete.
			flush(k + 1)
		}
		cum = end
	}
	flush(len(items))
	return dst
}

// Report describes a Lift run, for experiments that measure where the
// O(m*m_c) factor is lost.
type Report struct {
	// ServerCandidates is the number of server-side candidate sets
	// (singletons from S1 plus interval sets from S2); at most 2m-1 when
	// the SMD solution is feasible.
	ServerCandidates int
	// ChosenValue is the utility of the chosen server-side candidate
	// before per-user repair.
	ChosenValue float64
	// Value is the utility after per-user repair (the final value).
	Value float64
	// SMDValue is the utility of the SMD assignment being lifted.
	SMDValue float64
}

// Lift applies the Theorem 4.3 output transformation to an assignment
// that is feasible for the reduced instance, producing an assignment that
// is feasible for the original multi-budget instance.
func Lift(v *View, a *mmd.Assignment) (*mmd.Assignment, *Report, error) {
	smdCost := func(s int) float64 { return v.SMD.Streams[s].Costs[0] }
	report := &Report{SMDValue: a.Utility(v.Orig)}

	// Server side: singletons for streams with c(S) >= 1, interval
	// decomposition for the rest.
	var s1, s2 []int
	for _, s := range a.RangeView() {
		if smdCost(s) >= 1-intervalTolerance {
			s1 = append(s1, s)
		} else {
			s2 = append(s2, s)
		}
	}
	candidates := make([][]int, 0, len(s1)+2*len(s2))
	candidates = intervalSets(candidates, s2, smdCost)
	for i := range s1 {
		candidates = append(candidates, s1[i:i+1:i+1])
	}
	report.ServerCandidates = len(candidates)

	if len(candidates) == 0 {
		return mmd.NewAssignment(v.Orig.NumUsers()), report, nil
	}

	var chosen *mmd.Assignment
	bestVal := math.Inf(-1)
	for _, set := range candidates {
		allowed := make(map[int]struct{}, len(set))
		for _, s := range set {
			allowed[s] = struct{}{}
		}
		cand := a.Clone().RestrictToStreams(allowed)
		if val := cand.Utility(v.Orig); val > bestVal {
			chosen, bestVal = cand, val
		}
	}
	report.ChosenValue = bestVal

	// User side: repeat the decomposition per user on the normalized
	// load, keeping the best-utility subset.
	for u := 0; u < v.Orig.NumUsers(); u++ {
		if len(v.SMD.Users[u].Loads) == 0 {
			continue // user has no finite capacity: nothing to repair
		}
		load := v.SMD.Users[u].Loads[0]
		streams := chosen.UserStreams(u)
		var big, small []int
		for _, s := range streams {
			if load[s] >= 1-intervalTolerance {
				big = append(big, s)
			} else {
				small = append(small, s)
			}
		}
		sets := intervalSets(nil, small, func(s int) float64 { return load[s] })
		for i := range big {
			sets = append(sets, big[i:i+1:i+1])
		}
		if len(sets) == 0 {
			continue
		}
		bestSet, bestU := -1, math.Inf(-1)
		for i, set := range sets {
			sum := 0.0
			for _, s := range set {
				sum += v.Orig.Users[u].Utility[s]
			}
			if sum > bestU {
				bestSet, bestU = i, sum
			}
		}
		keep := make(map[int]struct{}, len(sets[bestSet]))
		for _, s := range sets[bestSet] {
			keep[s] = struct{}{}
		}
		for _, s := range streams {
			if _, ok := keep[s]; !ok {
				chosen.Remove(u, s)
			}
		}
	}

	if err := chosen.CheckFeasible(v.Orig); err != nil {
		return nil, nil, fmt.Errorf("reduction: lifted assignment infeasible: %w", err)
	}
	report.Value = chosen.Utility(v.Orig)
	return chosen, report, nil
}
