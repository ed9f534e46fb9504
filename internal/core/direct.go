package core

import (
	"math"

	"repro/internal/buf"
	"repro/internal/mmd"
)

// directGreedy is an implementation-added candidate with no worst-case
// guarantee of its own (the pipeline's guaranteed candidates provide
// that): a utility-aware greedy working directly on the original
// multi-budget instance. Each round it picks the stream with the best
// marginal utility per unit of budget-normalized cost — counting only
// users whose remaining capacities can actually hold the stream — and
// transmits it if every server budget still fits. Because Solve returns
// the best of all candidates, adding this one can only help; on
// non-adversarial workloads it is usually the strongest candidate (see
// experiment E9).
//
// interested is in.InterestedUsers(): every sum walks a stream's
// interested users in increasing order, so it adds the same terms in the
// same order as a scan over all users would.
func (w *Workspace) directGreedy(in *mmd.Instance, interested [][]int) *mmd.Assignment {
	nS, nU := in.NumStreams(), in.NumUsers()
	if w.direct == nil {
		w.direct = new(mmd.Assignment)
	}
	assn := w.direct
	assn.Reset(nU)

	budgetLeft := append(w.budgetLeft[:0], in.Budgets...)
	capLeft := buf.Grow(w.capLeft, nU)
	for u := range in.Users {
		capLeft[u] = append(capLeft[u][:0], in.Users[u].Capacities...)
	}
	chosen := buf.Zeroed(w.chosen, nS)

	// normCost is the merged cost used for ranking (feasibility is
	// checked against the real budgets separately).
	normCost := buf.Zeroed(w.normCost, nS)
	w.budgetLeft, w.capLeft, w.chosen, w.normCost = budgetLeft, capLeft, chosen, normCost
	for s := 0; s < nS; s++ {
		for i, c := range in.Streams[s].Costs {
			if b := in.Budgets[i]; b > 0 && !math.IsInf(b, 1) {
				normCost[s] += c / b
			}
		}
	}

	fitsUser := func(u, s int) bool {
		usr := &in.Users[u]
		for j := range usr.Capacities {
			if usr.Loads[j][s] > capLeft[u][j]+1e-12 {
				return false
			}
		}
		return true
	}

	for {
		bestS, bestMarginal, bestCost := -1, 0.0, 0.0
		for s := 0; s < nS; s++ {
			if chosen[s] {
				continue
			}
			fits := true
			for i, c := range in.Streams[s].Costs {
				if c > budgetLeft[i]+1e-12 {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			marginal := 0.0
			for _, u := range interested[s] {
				if fitsUser(u, s) {
					marginal += in.Users[u].Utility[s]
				}
			}
			if marginal <= 0 {
				continue
			}
			// Compare marginal/normCost by cross-multiplication so
			// zero-cost streams (infinite effectiveness) order first.
			if bestS < 0 || marginal*bestCost > bestMarginal*normCost[s] ||
				(marginal*bestCost == bestMarginal*normCost[s] && marginal > bestMarginal) {
				bestS, bestMarginal, bestCost = s, marginal, normCost[s]
			}
		}
		if bestS < 0 {
			return assn
		}
		chosen[bestS] = true
		for i, c := range in.Streams[bestS].Costs {
			budgetLeft[i] -= c
		}
		for _, u := range interested[bestS] {
			if fitsUser(u, bestS) {
				for j := range capLeft[u] {
					capLeft[u][j] -= in.Users[u].Loads[j][bestS]
				}
				assn.Add(u, bestS)
			}
		}
	}
}
