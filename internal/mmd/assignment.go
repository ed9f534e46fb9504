package mmd

import (
	"fmt"
	"sort"

	"repro/internal/buf"
)

// Assignment maps each user to a set of streams. The server transmits the
// union of all per-user sets (the range S(A)). An Assignment is tied to
// the stream/user indexing of the instance it was created for.
//
// Internally every per-user set and the range are maintained as sorted
// int slices, so the read paths (UserView, RangeView, the value methods,
// Equal) walk memory in increasing stream order without hashing,
// re-sorting, or allocating — the representation the serving hot path
// and the solvers lean on (see LoadLedger); smd.Assignment is this type
// too. Add and Remove are O(log k) to locate plus O(k) to shift within
// the touched set; per-user sets are small in every workload here, so
// the shift is cache-friendly and beats a map-of-sets on both time and
// allocations. The sets are rows of a few shared arrays, each capped
// at its own capacity, so no set's insert reaches another's: a full
// set moves to a row twice its size carved from the assignment's spare
// array, and CopyFrom lays out every set that does not fit its row in
// one array. Reset and CopyFrom keep every row's capacity, so a reused
// assignment allocates nothing once warm.
//
// Stream indices must be nonnegative; Add ignores negative indices.
// Assignment is not safe for concurrent mutation.
type Assignment struct {
	// sets[u] holds the stream indices assigned to user u, sorted
	// ascending.
	sets [][]int
	// spare is the part of the last array grow made that no set has
	// taken yet.
	spare []int
	// rangeCount[s] counts how many users hold stream s (grown on
	// demand); a stream is in the range while its count is positive.
	rangeCount []int
	// rangeList is S(A): the streams with a positive count, sorted
	// ascending.
	rangeList []int
}

// NewAssignment returns an empty assignment for an instance with
// numUsers users.
func NewAssignment(numUsers int) *Assignment {
	a := new(Assignment)
	a.Reset(numUsers)
	return a
}

// Reset empties the assignment and sizes it for numUsers users. Every
// buffer keeps its capacity, so an assignment that is reset and refilled
// allocates nothing once warm.
func (a *Assignment) Reset(numUsers int) {
	a.sets = buf.Rows(a.sets, numUsers)
	clear(a.rangeCount)
	a.rangeList = a.rangeList[:0]
}

// CopyFrom makes a an exact copy of b, reusing a's buffers.
func (a *Assignment) CopyFrom(b *Assignment) {
	if a == b {
		return
	}
	a.Reset(len(b.sets))
	var slab buf.Slab[int]
	for u, set := range b.sets {
		slab.Need(a.sets[u], len(set))
	}
	for u, set := range b.sets {
		a.sets[u] = slab.Fit(a.sets[u], len(set))
		copy(a.sets[u], set)
	}
	a.rangeCount = append(a.rangeCount[:0], b.rangeCount...)
	a.rangeList = append(a.rangeList, b.rangeList...)
}

// grownSize is the capacity a full sorted slice of capacity c grows to:
// a floor of 8 slots, because user stream sets and range lists start
// tiny, and the default 1->2->4 doubling charges the serving hot path
// several reallocations per set before amortization kicks in.
func grownSize(c int) int { return max(8, 2*c) }

// grow moves user u's full set to a row of grownSize, carved from the
// spare array. A spare too short for it is replaced by a fresh array
// with room for every user's first row, so one assignment's sets take a
// few arrays instead of one each; the rows they leave stay in their
// array, unused.
func (a *Assignment) grow(u int) {
	set := a.sets[u]
	n := grownSize(cap(set))
	if len(a.spare) < n {
		a.spare = make([]int, max(n, grownSize(0)*len(a.sets)))
	}
	row := buf.Carve(&a.spare, n)
	copy(row, set)
	a.sets[u] = row[:len(set)]
}

// insertAt inserts v at index i of sorted, whose capacity must exceed
// its length.
func insertAt(sorted []int, i, v int) []int {
	sorted = append(sorted, 0)
	copy(sorted[i+1:], sorted[i:])
	sorted[i] = v
	return sorted
}

// removeSorted deletes v from the ascending slice if present. It returns
// the slice and whether v was removed.
func removeSorted(sorted []int, v int) ([]int, bool) {
	i := sort.SearchInts(sorted, v)
	if i >= len(sorted) || sorted[i] != v {
		return sorted, false
	}
	return append(sorted[:i], sorted[i+1:]...), true
}

// NumUsers returns the number of users the assignment was created for.
func (a *Assignment) NumUsers() int { return len(a.sets) }

// Add assigns stream s to user u. Adding an already-assigned pair is a
// no-op, as is a negative stream index.
func (a *Assignment) Add(u, s int) {
	if s < 0 {
		return
	}
	i := sort.SearchInts(a.sets[u], s)
	if i < len(a.sets[u]) && a.sets[u][i] == s {
		return
	}
	if len(a.sets[u]) == cap(a.sets[u]) {
		a.grow(u)
	}
	a.sets[u] = insertAt(a.sets[u], i, s)
	if s >= len(a.rangeCount) {
		// append-grow so ascending insertion (the common solver order)
		// amortizes instead of reallocating on every new maximum.
		a.rangeCount = append(a.rangeCount, make([]int, s+1-len(a.rangeCount))...)
	}
	if a.rangeCount[s]++; a.rangeCount[s] == 1 {
		// s is new to the range, which holds at most the streams
		// rangeCount covers.
		list := a.rangeList
		if len(list) == cap(list) {
			grown := max(grownSize(cap(list)), len(a.rangeCount))
			list = append(make([]int, 0, grown), list...)
		}
		a.rangeList = insertAt(list, sort.SearchInts(list, s), s)
	}
}

// Remove unassigns stream s from user u. Removing an absent pair is a
// no-op.
func (a *Assignment) Remove(u, s int) {
	set, removed := removeSorted(a.sets[u], s)
	if !removed {
		return
	}
	a.sets[u] = set
	if a.rangeCount[s]--; a.rangeCount[s] == 0 {
		a.rangeList, _ = removeSorted(a.rangeList, s)
	}
}

// Has reports whether stream s is assigned to user u.
func (a *Assignment) Has(u, s int) bool {
	set := a.sets[u]
	i := sort.SearchInts(set, s)
	return i < len(set) && set[i] == s
}

// UserStreams returns the streams assigned to user u in increasing index
// order. The returned slice is owned by the caller (one allocation, no
// sort — the set is kept sorted).
func (a *Assignment) UserStreams(u int) []int {
	return append([]int(nil), a.sets[u]...)
}

// UserView is UserStreams without the copy: the slice is the
// assignment's own. The caller must not modify it, and it is valid only
// until the assignment next changes.
func (a *Assignment) UserView(u int) []int {
	set := a.sets[u]
	return set[:len(set):len(set)]
}

// UserCount returns |A(u)|.
func (a *Assignment) UserCount(u int) int { return len(a.sets[u]) }

// Range returns S(A), the set of streams assigned to at least one user,
// in increasing index order. The returned slice is owned by the caller
// (one allocation, no sort).
func (a *Assignment) Range() []int {
	return append([]int(nil), a.rangeList...)
}

// RangeView is Range without the copy, under UserView's rules.
func (a *Assignment) RangeView() []int {
	return a.rangeList[:len(a.rangeList):len(a.rangeList)]
}

// InRange reports whether stream s is assigned to at least one user.
func (a *Assignment) InRange(s int) bool {
	return s >= 0 && s < len(a.rangeCount) && a.rangeCount[s] > 0
}

// RangeSize returns |S(A)|.
func (a *Assignment) RangeSize() int { return len(a.rangeList) }

// Pairs returns the total number of assigned (user, stream) pairs.
func (a *Assignment) Pairs() int {
	n := 0
	for u := range a.sets {
		n += len(a.sets[u])
	}
	return n
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	out := new(Assignment)
	out.CopyFrom(a)
	return out
}

// Utility returns w(A) = sum_u sum_{S in A(u)} w_u(S) for the given
// instance. All value methods sum in increasing index order so results
// are bit-for-bit deterministic across runs.
func (a *Assignment) Utility(in *Instance) float64 {
	total := 0.0
	for u := range a.sets {
		total += a.UserUtility(in, u)
	}
	return total
}

// UserUtility returns w_u(A) = sum_{S in A(u)} w_u(S).
func (a *Assignment) UserUtility(in *Instance, u int) float64 {
	total := 0.0
	usr := &in.Users[u]
	for _, s := range a.sets[u] {
		total += usr.Utility[s]
	}
	return total
}

// ServerCost returns c_i(A), the cost of the range of A in measure i.
func (a *Assignment) ServerCost(in *Instance, i int) float64 {
	total := 0.0
	for _, s := range a.rangeList {
		total += in.Streams[s].Costs[i]
	}
	return total
}

// UserLoad returns k^u_j(A), the load of A(u) on capacity measure j of
// user u.
func (a *Assignment) UserLoad(in *Instance, u, j int) float64 {
	total := 0.0
	loads := in.Users[u].Loads[j]
	for _, s := range a.sets[u] {
		total += loads[s]
	}
	return total
}

// Restrict removes every assigned pair (u, s) for which keep returns
// false. It mutates the assignment in place and returns it.
func (a *Assignment) Restrict(keep func(u, s int) bool) *Assignment {
	for u := range a.sets {
		kept := a.sets[u][:0]
		for _, s := range a.sets[u] {
			if keep(u, s) {
				kept = append(kept, s)
				continue
			}
			if a.rangeCount[s]--; a.rangeCount[s] == 0 {
				a.rangeList, _ = removeSorted(a.rangeList, s)
			}
		}
		a.sets[u] = kept
	}
	return a
}

// RestrictToStreams removes every assigned stream not present in the
// given set. It mutates the assignment in place and returns it.
func (a *Assignment) RestrictToStreams(allowed map[int]struct{}) *Assignment {
	return a.Restrict(func(_, s int) bool {
		_, ok := allowed[s]
		return ok
	})
}

// feasibilityTolerance absorbs floating-point accumulation error when
// comparing sums against budgets and capacities.
const feasibilityTolerance = 1e-9

// exceedsLimit is the single comparison shared by CheckFeasible and the
// LoadLedger delta queries, so their accept/reject semantics cannot
// drift apart.
func exceedsLimit(total, limit float64) bool {
	return total > limit*(1+feasibilityTolerance)+feasibilityTolerance
}

// FeasibilityError describes a violated constraint.
type FeasibilityError struct {
	// Server reports whether a server budget (true) or user capacity
	// (false) is violated.
	Server bool
	// User is the violating user index (meaningful when Server is false).
	User int
	// Measure is the violated budget or capacity measure index.
	Measure int
	// Total is the accumulated cost or load.
	Total float64
	// Limit is the budget or capacity that Total exceeds.
	Limit float64
}

// Error implements the error interface.
func (e *FeasibilityError) Error() string {
	if e.Server {
		return fmt.Sprintf("mmd: server budget %d violated: cost %v > budget %v",
			e.Measure, e.Total, e.Limit)
	}
	return fmt.Sprintf("mmd: user %d capacity %d violated: load %v > capacity %v",
		e.User, e.Measure, e.Total, e.Limit)
}

// CheckFeasible verifies that the assignment satisfies every server
// budget and every user capacity of the instance, within a small
// floating-point tolerance. It returns nil when feasible and a
// *FeasibilityError describing the first violation otherwise.
//
// CheckFeasible is a full rescan — O(|S(A)|·m + Σ_u |A(u)|·m_c) — and is
// retained as the reference the incremental LoadLedger is tested
// against. Serving paths should answer the per-admission question with
// LoadLedger.FitsDelta instead of calling this per candidate.
func (a *Assignment) CheckFeasible(in *Instance) error {
	return a.CheckFeasibleScaled(in, nil)
}

// CheckFeasibleScaled is CheckFeasible with each carried stream's
// server cost priced at scaleOf(s) — the shared-catalog accounting,
// where a stream whose origin another tenant pays consumes only the
// replication fraction of this head-end's budgets. User capacities are
// checked at full load (each gateway receives the whole stream).
// scaleOf nil (how CheckFeasible delegates here — this function is the
// single copy of the feasibility walk) or ≡ 1 is full price; the
// accumulation always walks the range in ascending stream order, so
// the two pricings are bit-identical up to the scale factors.
func (a *Assignment) CheckFeasibleScaled(in *Instance, scaleOf func(s int) float64) error {
	for i := range in.Budgets {
		cost := 0.0
		for _, s := range a.rangeList {
			c := in.Streams[s].Costs[i]
			if scaleOf != nil {
				if scale := scaleOf(s); scale != 1 {
					c *= scale
				}
			}
			cost += c
		}
		if limit := in.Budgets[i]; exceedsLimit(cost, limit) {
			return &FeasibilityError{Server: true, Measure: i, Total: cost, Limit: limit}
		}
	}
	for u := range a.sets {
		usr := &in.Users[u]
		for j := range usr.Capacities {
			load := a.UserLoad(in, u, j)
			if limit := usr.Capacities[j]; exceedsLimit(load, limit) {
				return &FeasibilityError{User: u, Measure: j, Total: load, Limit: limit}
			}
		}
	}
	return nil
}

// Equal reports whether two assignments contain exactly the same pairs.
func (a *Assignment) Equal(b *Assignment) bool {
	if len(a.sets) != len(b.sets) {
		return false
	}
	for u := range a.sets {
		as, bs := a.sets[u], b.sets[u]
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

// String renders a compact human-readable description.
func (a *Assignment) String() string {
	return fmt.Sprintf("Assignment{users: %d, range: %d, pairs: %d}",
		len(a.sets), len(a.rangeList), a.Pairs())
}
