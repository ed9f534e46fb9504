package online

import (
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/mmd"
)

// Dynamic extension (footnote 1 of the paper): "The algorithm can also
// be extended to scenarios where streams have dynamic resource
// requirements, so long as their requirements are known when they
// arrive. This includes, for example, streams of finite duration." The
// natural mechanism is releasing a departed stream's resources so the
// exponential costs reflect only live load; Release implements that.
// The competitive analysis of Theorem 5.4 applies verbatim only to the
// arrival-only setting; with departures the algorithm becomes the
// heuristic the footnote sketches (exercised by experiment E11 and the
// headend churn tests).

// Release withdraws stream s entirely: every user holding it drops it
// and all budget loads are credited back. It reports whether the stream
// was actually held by anyone. Re-offering the stream later is allowed.
func (al *Allocator) Release(s int) bool {
	if !al.assn.InRange(s) {
		return false
	}
	for u := range al.in.Users {
		if !al.assn.Has(u, s) {
			continue
		}
		al.assn.Remove(u, s)
		al.value -= al.in.Users[u].Utility[s]
		usr := &al.in.Users[u]
		for j, capJ := range usr.Capacities {
			if capJ > 0 && !math.IsInf(capJ, 1) {
				al.userLoad[u][j] -= usr.Loads[j][s] / capJ
				if al.userLoad[u][j] < 0 {
					al.userLoad[u][j] = 0 // clamp fp residue
				}
			}
		}
	}
	for i, b := range al.in.Budgets {
		if b > 0 && !math.IsInf(b, 1) {
			al.serverLoad[i] -= al.in.Streams[s].Costs[i] / b
			if al.serverLoad[i] < 0 {
				al.serverLoad[i] = 0
			}
		}
	}
	return true
}

// ReleaseUser withdraws user u from every stream it holds (gateway
// churn). Streams kept alive by other subscribers retain their server
// load; a stream whose last subscriber leaves is pruned from the server
// too. It returns the number of streams dropped from the server.
func (al *Allocator) ReleaseUser(u int) (pruned int, err error) {
	if u < 0 || u >= al.in.NumUsers() {
		return 0, fmt.Errorf("online: release user %d: out of range", u)
	}
	usr := &al.in.Users[u]
	for _, s := range al.assn.UserStreams(u) {
		al.assn.Remove(u, s)
		al.value -= usr.Utility[s]
		for j, capJ := range usr.Capacities {
			if capJ > 0 && !math.IsInf(capJ, 1) {
				al.userLoad[u][j] -= usr.Loads[j][s] / capJ
				if al.userLoad[u][j] < 0 {
					al.userLoad[u][j] = 0
				}
			}
		}
		if !al.assn.InRange(s) {
			pruned++
			for i, b := range al.in.Budgets {
				if b > 0 && !math.IsInf(b, 1) {
					al.serverLoad[i] -= al.in.Streams[s].Costs[i] / b
					if al.serverLoad[i] < 0 {
						al.serverLoad[i] = 0
					}
				}
			}
		}
	}
	return pruned, nil
}

// Install charges an externally computed assignment into the allocator's
// load state, bypassing the admission rule: every (user, stream) pair of
// a not already held is committed, with loads and utilities read from
// the allocator's (normalized) instance. It is the mechanism behind
// re-solve installation — a fresh offline solution becomes the
// allocator's notion of live load, so the exponential costs of future
// offers price the installed lineup correctly. Pairs referencing users
// or streams outside the instance are skipped.
func (al *Allocator) Install(a *mmd.Assignment) {
	numUsers := al.in.NumUsers()
	nS := al.in.NumStreams()
	// Invert the assignment once — O(pairs) instead of an O(|S(A)|·|U|)
	// Has scan — then commit in increasing stream order with users in
	// increasing index order, the exact order the scan produced, so the
	// allocator's accumulated state is unchanged bit for bit.
	users := buf.Rows(al.byStream, nS)
	al.byStream = users
	for u := 0; u < a.NumUsers() && u < numUsers; u++ {
		for _, s := range a.UserView(u) {
			if s >= 0 && s < nS && !al.assn.Has(u, s) {
				users[s] = append(users[s], u)
			}
		}
	}
	for _, s := range a.RangeView() {
		if s < 0 || s >= nS {
			continue
		}
		if len(users[s]) > 0 {
			al.commit(s, users[s])
		}
	}
}
