package reduction

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/buf"
	"repro/internal/mmd"
)

// LiftGreedy is an implementation-improved output transformation: like
// Lift it decomposes the SMD solution into candidate sets that are
// individually feasible, but instead of keeping a single set it merges
// sets greedily (largest utility first) while the ORIGINAL budgets and
// capacities still hold. Its value is never below Lift's — the best
// single set is always admitted first — so the Theorem 4.3 guarantee is
// preserved, and on non-adversarial workloads it typically recovers most
// of the paper-faithful transformation's m*mc loss (measured by the
// lift-merge ablation benchmark).
func LiftGreedy(v *View, a *mmd.Assignment) (*mmd.Assignment, *Report, error) {
	return new(Workspace).LiftGreedy(v, a)
}

// scoredSet is a server-side candidate set with its utility under the
// SMD assignment being lifted.
type scoredSet struct {
	set  []int
	util float64
}

// byUtilityDesc orders utilities largest first; a stable sort with it
// keeps equal utilities in their original order.
func byUtilityDesc(a, b float64) int {
	switch {
	case a > b:
		return -1
	case b > a:
		return 1
	}
	return 0
}

// LiftGreedy is the package LiftGreedy run on the workspace. a is only
// read.
func (w *Workspace) LiftGreedy(v *View, a *mmd.Assignment) (*mmd.Assignment, *Report, error) {
	smdCost := func(s int) float64 { return v.SMD.Streams[s].Costs[0] }
	nU, nS := v.Orig.NumUsers(), v.Orig.NumStreams()
	if w.report == nil {
		w.report, w.chosen = new(Report), new(mmd.Assignment)
	}
	report := w.report
	*report = Report{SMDValue: a.Utility(v.Orig)}
	chosen := w.chosen
	chosen.Reset(nU)

	s1, s2 := w.s1[:0], w.s2[:0]
	for _, s := range a.RangeView() {
		if smdCost(s) >= 1-intervalTolerance {
			s1 = append(s1, s)
		} else {
			s2 = append(s2, s)
		}
	}
	candidates := intervalSets(w.candidates[:0], s2, smdCost)
	for i := range s1 {
		candidates = append(candidates, s1[i:i+1:i+1])
	}
	w.s1, w.s2, w.candidates = s1, s2, candidates
	report.ServerCandidates = len(candidates)
	if len(candidates) == 0 {
		return chosen, report, nil
	}

	// holders[s] lists the users a gives stream s, in increasing order:
	// the assignment inverted once instead of a Has probe per user per
	// candidate stream. A count per stream sizes the lists first.
	counts := buf.Zeroed(w.counts, nS)
	for u := 0; u < nU; u++ {
		for _, s := range a.UserView(u) {
			counts[s]++
		}
	}
	holders := buf.Grow(w.holders, nS)
	var slab buf.Slab[int]
	for s, n := range counts {
		slab.Need(holders[s], n)
	}
	for s, n := range counts {
		holders[s] = slab.Fit(holders[s], n)[:0]
	}
	w.counts, w.holders = counts, holders
	for u := 0; u < nU; u++ {
		for _, s := range a.UserView(u) {
			holders[s] = append(holders[s], u)
		}
	}

	// Server side: admit candidate sets in decreasing utility order
	// while every original server budget holds.
	scored := w.scored[:0]
	for _, set := range candidates {
		util := 0.0
		for _, s := range set {
			for _, u := range holders[s] {
				util += v.Orig.Users[u].Utility[s]
			}
		}
		scored = append(scored, scoredSet{set: set, util: util})
	}
	w.scored = scored
	slices.SortStableFunc(scored, func(x, y scoredSet) int { return byUtilityDesc(x.util, y.util) })

	budgetLeft := append(w.budgetLeft[:0], v.Orig.Budgets...)
	setCost := buf.Zeroed(w.setCost, len(budgetLeft))
	w.budgetLeft, w.setCost = budgetLeft, setCost
	for _, cand := range scored {
		// Charge the whole set, then copy its pairs.
		clear(setCost)
		for _, s := range cand.set {
			for i, c := range v.Orig.Streams[s].Costs {
				setCost[i] += c
			}
		}
		ok := true
		for i := range budgetLeft {
			if setCost[i] > budgetLeft[i]+1e-12 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i := range budgetLeft {
			budgetLeft[i] -= setCost[i]
		}
		for _, s := range cand.set {
			for _, u := range holders[s] {
				chosen.Add(u, s)
			}
		}
	}
	report.ChosenValue = chosen.Utility(v.Orig)

	// User side: per user, decompose into individually feasible sets and
	// merge them in utility order while the true capacities hold. keep
	// marks the streams kept for the current user and is all false
	// between users.
	keep := buf.Zeroed(w.keep, nS)
	w.keep = keep
	for u := 0; u < nU; u++ {
		usr := &v.Orig.Users[u]
		// A copy: the repair below removes from the set it walks.
		streams := append(w.streams[:0], chosen.UserView(u)...)
		w.streams = streams
		if len(streams) == 0 || len(usr.Capacities) == 0 {
			continue
		}
		sets := w.sets[:0]
		if len(v.SMD.Users[u].Loads) == 0 {
			sets = append(sets, streams)
		} else {
			load := v.SMD.Users[u].Loads[0]
			big, small := w.big[:0], w.small[:0]
			for _, s := range streams {
				if load[s] >= 1-intervalTolerance {
					big = append(big, s)
				} else {
					small = append(small, s)
				}
			}
			w.big, w.small = big, small
			sets = intervalSets(sets, small, func(s int) float64 { return load[s] })
			for i := range big {
				sets = append(sets, big[i:i+1:i+1])
			}
		}
		w.sets = sets
		slices.SortStableFunc(sets, func(x, y []int) int {
			return byUtilityDesc(setUtility(usr, x), setUtility(usr, y))
		})
		capLeft := append(w.capLeft[:0], usr.Capacities...)
		setLoad := buf.Zeroed(w.setLoad, len(capLeft))
		w.capLeft, w.setLoad = capLeft, setLoad
		for _, set := range sets {
			clear(setLoad)
			for _, s := range set {
				for j := range capLeft {
					setLoad[j] += usr.Loads[j][s]
				}
			}
			fits := true
			for j := range capLeft {
				if !math.IsInf(capLeft[j], 1) && setLoad[j] > capLeft[j]+1e-12 {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			for j := range capLeft {
				capLeft[j] -= setLoad[j]
			}
			for _, s := range set {
				keep[s] = true
			}
		}
		for _, s := range streams {
			if !keep[s] {
				chosen.Remove(u, s)
			}
			keep[s] = false
		}
	}

	if err := chosen.CheckFeasible(v.Orig); err != nil {
		return nil, nil, fmt.Errorf("reduction: greedily lifted assignment infeasible: %w", err)
	}
	report.Value = chosen.Utility(v.Orig)
	return chosen, report, nil
}

func setUtility(usr *mmd.User, set []int) float64 {
	total := 0.0
	for _, s := range set {
		total += usr.Utility[s]
	}
	return total
}
