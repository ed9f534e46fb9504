package mmd

// LoadLedger maintains the aggregate feasibility state of one running
// assignment incrementally: the per-measure server cost of the range and
// every user's per-measure load. Add and Remove are O(m + m_c) in the
// number of measures — the guarded-admission question "does delivering
// stream s to user u keep every budget and capacity?" is answered by
// FitsDelta/CanAdmit in O(m + m_c) instead of the full O(|S(A)|·m +
// Σ_u |A(u)|·m_c) rescan that Assignment.CheckFeasible performs. The
// paper's own algorithms are linear-time per event (the Section 2 greedy
// maintains residuals incrementally; the Section 5 allocator charges
// exponential costs incrementally); the ledger gives the admission
// backstop the same per-event cost profile.
//
// The ledger is bookkeeping alongside an Assignment, not a replacement
// for it: callers mirror every Assignment.Add/Remove with the matching
// ledger call (or Rebuild from the assignment wholesale, as the
// make-before-break Reinstall paths do). Invariant expected by the delta
// queries: the mirrored assignment is feasible — policies that only ever
// admit through FitsDelta and remove freely preserve it, because costs
// and loads are nonnegative.
//
// Like every incremental accumulator (compare ThresholdPolicy's running
// costs), the ledger sums floats in event order rather than sorted
// stream order, so totals can differ from a fresh rescan in the last
// ulp. Rebuild re-sums in sorted order, matching CheckFeasible
// bit-for-bit; the differential tests in internal/headend pin the
// policy-level decisions to the reference rescan implementation.
//
// A LoadLedger is not safe for concurrent use.
type LoadLedger struct {
	in *Instance
	// holders[s] counts users currently holding stream s; the stream
	// contributes its server costs while the count is positive.
	holders []int
	// chargeScale[s] is the server-cost scale stream s was charged at
	// when it entered the range (1 outside the shared-catalog path). The
	// refund on the last holder's Remove uses the recorded scale, so
	// charge and credit always cancel exactly.
	chargeScale []float64
	// serverCost[i] is c_i(S(A)), the range cost in measure i.
	serverCost []float64
	// userLoad[u][j] is k^u_j(A(u)), user u's load in capacity measure j.
	userLoad [][]float64
}

// NewLoadLedger returns an empty ledger for the instance.
func NewLoadLedger(in *Instance) *LoadLedger {
	l := &LoadLedger{
		in:          in,
		holders:     make([]int, in.NumStreams()),
		chargeScale: make([]float64, in.NumStreams()),
		serverCost:  make([]float64, in.M()),
		userLoad:    in.CapacityRows(),
	}
	for i := range l.chargeScale {
		l.chargeScale[i] = 1
	}
	return l
}

// Add charges the delivery of stream s to user u: the user's loads
// always, the server costs only when s enters the range. Mirror it with
// Assignment.Add; never double-charge a pair the assignment already
// holds. O(m + m_c).
func (l *LoadLedger) Add(u, s int) { l.AddScaled(u, s, 1) }

// AddScaled is Add with the server-cost delta priced at serverScale —
// the shared-catalog discount: a head-end admitting a stream whose
// origin another tenant already pays charges only the multicast-
// replication fraction of the stream's cost vector against its own
// budgets. User loads are never scaled (each gateway still receives the
// full stream over its own downlink). The scale applies only when s
// enters the range and is recorded so the eventual refund matches;
// serverScale 1 is bit-identical to Add.
func (l *LoadLedger) AddScaled(u, s int, serverScale float64) {
	if l.holders[s]++; l.holders[s] == 1 {
		l.chargeScale[s] = serverScale
		for i, c := range l.in.Streams[s].Costs {
			if serverScale != 1 {
				c *= serverScale
			}
			l.serverCost[i] += c
		}
	}
	usr := &l.in.Users[u]
	for j := range usr.Capacities {
		l.userLoad[u][j] += usr.Loads[j][s]
	}
}

// Remove credits back the delivery of stream s to user u, releasing the
// server costs (at the scale they were charged at) when the last holder
// leaves. Small negative floating-point residues are clamped to zero.
// O(m + m_c).
func (l *LoadLedger) Remove(u, s int) {
	if l.holders[s]--; l.holders[s] == 0 {
		scale := l.chargeScale[s]
		l.chargeScale[s] = 1
		for i, c := range l.in.Streams[s].Costs {
			if scale != 1 {
				c *= scale
			}
			l.serverCost[i] -= c
			if l.serverCost[i] < 0 {
				l.serverCost[i] = 0
			}
		}
	}
	usr := &l.in.Users[u]
	for j := range usr.Capacities {
		l.userLoad[u][j] -= usr.Loads[j][s]
		if l.userLoad[u][j] < 0 {
			l.userLoad[u][j] = 0
		}
	}
}

// FitsDelta reports whether delivering stream s to user u keeps every
// server budget and every capacity of u, under the same tolerance as
// CheckFeasible. Assuming the mirrored assignment is feasible, this is
// exactly the guarded-admission question: the delta touches only the
// server measures (when s is not yet in the range) and u's own
// capacities, so no other constraint can newly fail. O(m + m_c),
// allocation-free (use CanAdmit for a diagnosed rejection).
func (l *LoadLedger) FitsDelta(u, s int) bool { return l.FitsDeltaScaled(u, s, 1) }

// FitsDeltaScaled is FitsDelta with the server-cost delta priced at
// serverScale (see AddScaled). When s is already in the range the server
// side was charged at admission time, so only u's capacities are
// checked; serverScale 1 is bit-identical to FitsDelta. O(m + m_c),
// allocation-free.
func (l *LoadLedger) FitsDeltaScaled(u, s int, serverScale float64) bool {
	if l.holders[s] == 0 {
		for i, c := range l.in.Streams[s].Costs {
			if serverScale != 1 {
				c *= serverScale
			}
			if exceedsLimit(l.serverCost[i]+c, l.in.Budgets[i]) {
				return false
			}
		}
	}
	usr := &l.in.Users[u]
	for j := range usr.Capacities {
		if exceedsLimit(l.userLoad[u][j]+usr.Loads[j][s], usr.Capacities[j]) {
			return false
		}
	}
	return true
}

// CanAdmit is FitsDelta with a diagnosis: it returns nil when the pair
// fits and a *FeasibilityError describing the first violated constraint
// otherwise (server budgets in measure order, then u's capacities).
func (l *LoadLedger) CanAdmit(u, s int) error {
	if l.holders[s] == 0 {
		for i, c := range l.in.Streams[s].Costs {
			if total, limit := l.serverCost[i]+c, l.in.Budgets[i]; exceedsLimit(total, limit) {
				return &FeasibilityError{Server: true, Measure: i, Total: total, Limit: limit}
			}
		}
	}
	usr := &l.in.Users[u]
	for j := range usr.Capacities {
		if total, limit := l.userLoad[u][j]+usr.Loads[j][s], usr.Capacities[j]; exceedsLimit(total, limit) {
			return &FeasibilityError{User: u, Measure: j, Total: total, Limit: limit}
		}
	}
	return nil
}

// Rebuild resets the ledger to the aggregate state of assn, summing in
// increasing stream order so the totals are bit-identical to a fresh
// CheckFeasible accumulation over the same assignment, with every
// charge scale reset to 1 (full isolated pricing). It is
// RebuildScaled(assn, nil); use RebuildScaled to preserve earned
// discounts across a reinstall. O(instance).
func (l *LoadLedger) Rebuild(assn *Assignment) { l.RebuildScaled(assn, nil) }

// RebuildScaled resets the ledger to the aggregate state of assn with
// each in-range stream's server cost priced at scaleOf(s) (nil scaleOf
// means full price everywhere, exactly Rebuild). The make-before-break
// reinstall paths pass the charge scales their previous lineup had
// earned for the streams the new lineup retains: a retained
// shared-catalog stream keeps its discount across an install — its
// origin is still paid for elsewhere, so re-pricing it at full cost
// would both overstate the budget draw and desynchronize the ledger
// from the refund recorded at its eventual departure. Streams the new
// lineup picks up fresh carry scale 1 unless the caller says otherwise.
// O(instance).
func (l *LoadLedger) RebuildScaled(assn *Assignment, scaleOf func(s int) float64) {
	clear(l.holders)
	clear(l.serverCost)
	for s := range l.chargeScale {
		l.chargeScale[s] = 1
	}
	for u := range l.userLoad {
		clear(l.userLoad[u])
	}
	for u, set := range assn.sets {
		if u >= len(l.userLoad) {
			break
		}
		usr := &l.in.Users[u]
		for _, s := range set {
			if s >= len(l.holders) {
				continue
			}
			l.holders[s]++
			for j := range usr.Capacities {
				l.userLoad[u][j] += usr.Loads[j][s]
			}
		}
	}
	for _, s := range assn.rangeList {
		if s < len(l.holders) && l.holders[s] > 0 {
			scale := 1.0
			if scaleOf != nil {
				scale = scaleOf(s)
			}
			l.chargeScale[s] = scale
			for i, c := range l.in.Streams[s].Costs {
				if scale != 1 {
					c *= scale
				}
				l.serverCost[i] += c
			}
		}
	}
}

// ServerCost returns the maintained c_i(S(A)) for measure i.
func (l *LoadLedger) ServerCost(i int) float64 { return l.serverCost[i] }

// UserLoad returns the maintained k^u_j(A(u)).
func (l *LoadLedger) UserLoad(u, j int) float64 { return l.userLoad[u][j] }

// Holders returns the number of users currently holding stream s.
func (l *LoadLedger) Holders(s int) int { return l.holders[s] }

// ChargeScale returns the server-cost scale stream s was charged at (1
// when s is not in the range or was admitted outside the catalog path).
func (l *LoadLedger) ChargeScale(s int) float64 { return l.chargeScale[s] }

// StreamCostSum returns the scalar sum of stream s's server cost vector
// — the "origin cost units" the shared-catalog accounting reports
// savings in.
func (in *Instance) StreamCostSum(s int) float64 {
	total := 0.0
	for _, c := range in.Streams[s].Costs {
		total += c
	}
	return total
}
