package headend

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mmd"
)

// Tenant is one head-end instance driven step by step: an admission
// policy plus the authoritative running assignment, stream lifetimes,
// and gateway availability. Callers bring their own event loop (the
// sharded cluster in internal/cluster, or a test replaying a seeded
// order) and make one call per event.
//
// A Tenant is not safe for concurrent use; callers serialize all step
// calls (the cluster pins each tenant to one shard worker).
type Tenant struct {
	in     *mmd.Instance
	policy Policy
	assn   *mmd.Assignment
	// live maps a carried stream to the users admitted for it; a stream
	// stays carried (and further offers are no-ops) until DepartStream.
	live map[int][]int
	// scale records the server-cost charge scale of live streams
	// admitted at a discount (OfferStreamScaled with scale != 1; the
	// shared-catalog path). Absent streams were charged at full price.
	// Snapshot feasibility prices these streams at their recorded scale.
	scale map[int]float64
	// away marks gateways currently offline.
	away []bool
	// ws is the re-solve workspace, built by the first Resolve.
	ws *resolveWorkspace

	offered, admitted, departed int
	leaves, joins, resolves     int
	installs                    int
	lastResolve                 float64
	hasResolve                  bool
}

// TenantSnapshot is a deterministic summary of a tenant's state.
type TenantSnapshot struct {
	// Policy is the admission policy name.
	Policy string
	// Utility is the total utility of the current assignment.
	Utility float64
	// StreamsOffered / StreamsAdmitted / StreamsDeparted count events.
	StreamsOffered, StreamsAdmitted, StreamsDeparted int
	// UserLeaves / UserJoins count gateway churn events.
	UserLeaves, UserJoins int
	// Resolves counts offline re-solves; Installs counts the ones that
	// replaced the running assignment; LastResolveValue is the offline
	// pipeline value observed by the most recent one (0 when none ran).
	Resolves, Installs int
	LastResolveValue   float64
	// ActiveStreams is the number of streams currently transmitted;
	// Pairs is the number of (user, stream) deliveries.
	ActiveStreams, Pairs int
	// Feasible reports whether the current assignment satisfies every
	// budget and capacity.
	Feasible bool
}

// NewTenant builds a tenant around an instance and a policy.
func NewTenant(in *mmd.Instance, policy Policy) (*Tenant, error) {
	if in == nil || in.M() < 1 {
		return nil, fmt.Errorf("headend: tenant needs an instance with at least one budget")
	}
	if policy == nil {
		return nil, fmt.Errorf("headend: tenant needs a policy")
	}
	return &Tenant{
		in:     in,
		policy: policy,
		assn:   mmd.NewAssignment(in.NumUsers()),
		live:   make(map[int][]int),
		away:   make([]bool, in.NumUsers()),
	}, nil
}

// Instance returns the tenant's instance.
func (t *Tenant) Instance() *mmd.Instance { return t.in }

// Policy returns the tenant's policy.
func (t *Tenant) Policy() Policy { return t.policy }

// Assignment returns the authoritative running assignment. The caller
// must not mutate it.
func (t *Tenant) Assignment() *mmd.Assignment { return t.assn }

// OfferStream presents stream s to the policy and commits the decision.
// It returns the users that now receive s (nil when the stream is
// rejected, out of range, or already carried). Users that are away are
// filtered defensively even if a churn-unaware policy selected them.
func (t *Tenant) OfferStream(s int) []int { return t.OfferStreamScaled(s, 1) }

// OfferStreamScaled is OfferStream with the admission guard's
// server-cost delta priced at serverCostScale — the admit hook the
// fleet catalog (internal/catalog) calls into so a SharedOrigin
// admission asks the feasibility ledger with the discounted delta. The
// scale reaches the policy only when it implements
// ScaledAdmissionPolicy (the guarded online policy does); other
// policies admit at full price and the discount affects only the
// catalog's accounting. Scale 1 is identical to OfferStream. The
// matching release hook is DepartStream: the ledger refunds the scale
// the stream was charged at.
func (t *Tenant) OfferStreamScaled(s int, serverCostScale float64) []int {
	if s < 0 || s >= t.in.NumStreams() {
		return nil
	}
	t.offered++
	if _, alive := t.live[s]; alive {
		return nil
	}
	var users []int
	if sp, ok := t.policy.(ScaledAdmissionPolicy); ok {
		users = sp.OnStreamArrivalScaled(s, serverCostScale)
	} else {
		users = t.policy.OnStreamArrival(s)
	}
	kept := make([]int, 0, len(users))
	for _, u := range users {
		if u >= 0 && u < len(t.away) && !t.away[u] {
			kept = append(kept, u)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	t.admitted++
	t.live[s] = kept
	if serverCostScale != 1 {
		if t.scale == nil {
			t.scale = make(map[int]float64)
		}
		t.scale[s] = serverCostScale
	}
	for _, u := range kept {
		t.assn.Add(u, s)
	}
	return kept
}

// DepartStream removes a carried stream, releasing its users and (for
// departure-aware policies) the policy's resources. Departing a stream
// that is not carried is a no-op.
func (t *Tenant) DepartStream(s int) []int {
	users, alive := t.live[s]
	if !alive {
		return nil
	}
	t.departed++
	delete(t.live, s)
	delete(t.scale, s)
	for _, u := range users {
		t.assn.Remove(u, s)
	}
	if dp, ok := t.policy.(DeparturePolicy); ok {
		dp.OnStreamDeparture(s)
	}
	return users
}

// Carries reports whether stream s is currently carried (admitted and
// not yet departed; it stays carried even if every holder has left).
func (t *Tenant) Carries(s int) bool {
	_, alive := t.live[s]
	return alive
}

// Away reports whether gateway u is currently offline.
func (t *Tenant) Away(u int) bool {
	return u >= 0 && u < len(t.away) && t.away[u]
}

// UserLeave takes gateway u offline: its subscriptions are torn down
// and it receives nothing until UserJoin. It returns the streams u was
// receiving, in increasing index order. Leaving twice is a no-op.
func (t *Tenant) UserLeave(u int) []int {
	if u < 0 || u >= len(t.away) || t.away[u] {
		return nil
	}
	t.leaves++
	t.away[u] = true
	var removed []int
	for s, held := range t.live {
		for i, holder := range held {
			if holder == u {
				t.live[s] = append(held[:i:i], held[i+1:]...)
				t.assn.Remove(u, s)
				removed = append(removed, s)
				break
			}
		}
	}
	sort.Ints(removed)
	if cp, ok := t.policy.(UserChurnPolicy); ok {
		cp.OnUserLeave(u)
	}
	return removed
}

// UserJoin brings gateway u back online (eligible for future streams;
// it does not recover old subscriptions). Joining while online is a
// no-op.
func (t *Tenant) UserJoin(u int) {
	if u < 0 || u >= len(t.away) || !t.away[u] {
		return
	}
	t.joins++
	t.away[u] = false
	if cp, ok := t.policy.(UserChurnPolicy); ok {
		cp.OnUserJoin(u)
	}
}

// ResolveOutcome reports one offline re-solve of a tenant.
type ResolveOutcome struct {
	// OnlineValue is the utility of the running assignment at the
	// moment of the re-solve (the drifted online state).
	OnlineValue float64
	// OfflineValue is the value of the fresh offline Theorem 1.1
	// solution over the same (away-zeroed) instance.
	OfflineValue float64
	// Installed reports whether the offline assignment replaced the
	// running one (install requested AND the offline solution was at
	// least as good as the running assignment).
	Installed bool
}

// resolveWorkspace is what a tenant's re-solves reuse from one to the
// next: the away-masked instance, the solver's workspace and the
// install's scratch. The first Resolve builds it; only the goroutine
// that drives the tenant touches it, and nothing a step returns points
// into it.
type resolveWorkspace struct {
	// masked is the instance a re-solve runs on: the tenant's streams
	// and budgets, and its users with every away gateway's utility row
	// replaced by zero — a copy of the user headers, not of the rows.
	masked mmd.Instance
	zero   []float64
	solver core.Workspace
	// offsets is the install's per-stream cursor into the fresh array
	// the carried streams' user lists are carved from.
	offsets []int
}

func newResolveWorkspace(in *mmd.Instance) *resolveWorkspace {
	return &resolveWorkspace{
		masked: mmd.Instance{
			Streams: in.Streams,
			Users:   make([]mmd.User, in.NumUsers()),
			Budgets: in.Budgets,
		},
		zero:    make([]float64, in.NumStreams()),
		offsets: make([]int, in.NumStreams()),
	}
}

// workspace returns the tenant's re-solve workspace, building it on
// first use.
func (t *Tenant) workspace() *resolveWorkspace {
	if t.ws == nil {
		t.ws = newResolveWorkspace(t.in)
	}
	return t.ws
}

// mask refreshes the masked instance for the current away set. The
// solver only reads its instance, so the shared zero row and the shared
// headers stay untouched.
func (w *resolveWorkspace) mask(in *mmd.Instance, away []bool) *mmd.Instance {
	for u := range in.Users {
		w.masked.Users[u] = in.Users[u]
		if away[u] {
			w.masked.Users[u].Utility = w.zero
		}
	}
	return &w.masked
}

// Resolve runs the offline Theorem 1.1 pipeline on the tenant's
// instance (with away gateways' utilities zeroed). With install false it
// is a monitoring step — the running assignment and policy state are not
// replaced; the outcome measures how far the online assignment has
// drifted from a fresh offline solution. With install true the offline
// assignment is installed via a make-before-break swap (see install),
// but only when it is at least as good as the running assignment — a
// re-solve never downgrades the lineup it replaces.
func (t *Tenant) Resolve(opts core.Options, install bool) (ResolveOutcome, error) {
	ws := t.workspace()
	assn, rep, err := ws.solver.Solve(ws.mask(t.in, t.away), opts)
	if err != nil {
		return ResolveOutcome{}, fmt.Errorf("headend: tenant resolve: %w", err)
	}
	out := ResolveOutcome{
		OnlineValue:  t.assn.Utility(t.in),
		OfflineValue: rep.Value,
	}
	if install && out.OfflineValue >= out.OnlineValue {
		if err := t.install(assn); err != nil {
			return out, err
		}
		out.Installed = true
		t.installs++
	}
	t.resolves++
	t.lastResolve = rep.Value
	t.hasResolve = true
	return out, nil
}

// install swaps the running assignment for a fresh offline solution,
// make before break: away gateways are stripped from the candidate, it
// is feasibility-checked against the true instance, and the policy's
// internal state is rebuilt around it (ReinstallablePolicy) — only when
// all of that succeeds are the tenant's assignment and live-stream
// table replaced. On any error the old state is untouched. Installing
// adopts the offline lineup over the full catalog: the head-end retunes
// to the Theorem 1.1 solution, dropping carried streams outside it and
// picking up catalog streams inside it. assn is the solver workspace's
// scratch, so it is edited in place and copied into the running
// assignment.
func (t *Tenant) install(assn *mmd.Assignment) error {
	assn.Restrict(func(u, s int) bool {
		return u < len(t.away) && !t.away[u]
	})
	if err := assn.CheckFeasible(t.in); err != nil {
		return fmt.Errorf("headend: install: offline assignment infeasible: %w", err)
	}
	rp, ok := t.policy.(ReinstallablePolicy)
	if !ok {
		return fmt.Errorf("headend: install: policy %q cannot rebuild its state", t.policy.Name())
	}
	if err := rp.Reinstall(assn); err != nil {
		return fmt.Errorf("headend: install: %w", err)
	}
	t.assn.CopyFrom(assn)
	t.rebuildLive()
	// Streams the install retains keep the charge scale they were
	// admitted at — their shared-catalog origin is still paid for
	// elsewhere, and the fleet reference survives the install, so the
	// feasibility rescan must keep pricing them at the discount. Only
	// streams the new lineup dropped lose their entry; pickups are full
	// price (the cluster's reconcile adopts their reference at full
	// cost).
	for s := range t.scale {
		if !t.assn.InRange(s) {
			delete(t.scale, s)
		}
	}
	return nil
}

// rebuildLive refills the carried-stream table from the running
// assignment, each stream's users in increasing order. DepartStream
// hands these lists to callers, so they are carved from one fresh array
// per install (capacity-capped, so no append reaches a neighbour) and
// never from memory a later install reuses.
func (t *Tenant) rebuildLive() {
	offsets := t.workspace().offsets
	clear(offsets)
	for u := 0; u < t.assn.NumUsers(); u++ {
		for _, s := range t.assn.UserView(u) {
			offsets[s]++
		}
	}
	next := 0
	for _, s := range t.assn.RangeView() {
		n := offsets[s]
		offsets[s] = next
		next += n
	}
	users := make([]int, next)
	for u := 0; u < t.assn.NumUsers(); u++ {
		for _, s := range t.assn.UserView(u) {
			users[offsets[s]] = u
			offsets[s]++
		}
	}
	clear(t.live)
	start := 0
	for _, s := range t.assn.RangeView() {
		end := offsets[s]
		t.live[s] = users[start:end:end]
		start = end
	}
}

// Snapshot summarizes the tenant deterministically.
func (t *Tenant) Snapshot() TenantSnapshot {
	return TenantSnapshot{
		Policy:           t.policy.Name(),
		Utility:          t.assn.Utility(t.in),
		StreamsOffered:   t.offered,
		StreamsAdmitted:  t.admitted,
		StreamsDeparted:  t.departed,
		UserLeaves:       t.leaves,
		UserJoins:        t.joins,
		Resolves:         t.resolves,
		Installs:         t.installs,
		LastResolveValue: t.lastResolve,
		ActiveStreams:    t.assn.RangeSize(),
		Pairs:            t.assn.Pairs(),
		Feasible:         t.feasible(),
	}
}

// feasible verifies the running assignment against the instance's
// budgets and capacities. Streams admitted at a shared-catalog discount
// are priced at their recorded charge scale (the origin work happens at
// another head-end); with no discounted streams this is exactly the
// full-price CheckFeasible rescan the pre-catalog snapshots ran.
func (t *Tenant) feasible() bool {
	if len(t.scale) == 0 {
		return t.assn.CheckFeasible(t.in) == nil
	}
	return t.assn.CheckFeasibleScaled(t.in, func(s int) float64 {
		if sc, ok := t.scale[s]; ok {
			return sc
		}
		return 1
	}) == nil
}
