// Package headend ties the pieces into the system of Fig. 1: a cable
// head-end with a stream catalog, neighborhood gateways, and an
// admission policy (the paper's algorithms or the deployed-world
// threshold baseline). Tenant is the event-facing step core: each
// stream arrival, departure, gateway leave or join, and offline
// re-solve is one call, and the sharded cluster (internal/cluster)
// drives one Tenant per head-end. See ARCHITECTURE.md at the repo root
// for the layer map.
package headend

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mmd"
	"repro/internal/online"
)

// Policy decides, at stream-arrival time, which users receive the
// stream. Implementations may keep state; they are driven from the
// single goroutine that owns their Tenant.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// OnStreamArrival returns the users that should receive stream s
	// (empty or nil when the stream is rejected). The returned slice
	// may alias policy-internal state (reveal policies serve from
	// precomputed delivery lists); callers must not mutate it.
	OnStreamArrival(s int) []int
}

// ReinstallablePolicy is implemented by policies that can rebuild their
// internal state around an externally installed assignment — the
// make-before-break half of Tenant.Resolve with install. Reinstall must
// leave the policy untouched when it returns an error, and afterwards
// the policy's view of live load must match assn (so future arrival
// decisions price the installed lineup correctly).
//
// Reinstall restarts, not replays: the rebuilt state reflects only the
// installed assignment, never the arrival history that preceded it. For
// the online policy this means the allocator's exponential-cost phase
// begins afresh from the installed load — a fresh competitive phase, as
// if the installed lineup had been the initial state — rather than
// re-running the offers that were seen before the install
// (TestReinstallRestartsExponentialPhase pins this down).
type ReinstallablePolicy interface {
	Policy
	// Reinstall rebuilds the policy state around assn. The policy must
	// not retain assn; it clones what it keeps.
	Reinstall(assn *mmd.Assignment) error
}

// ScaledAdmissionPolicy is implemented by policies whose admission
// guard can price an arrival's server-cost delta at a fraction of the
// catalog cost — the hook the fleet catalog (internal/catalog via
// Tenant.OfferStreamScaled) uses for the SharedOrigin cost model: a
// tenant admitting a stream whose origin another tenant already pays
// charges only the multicast-replication fraction against its own
// budgets. serverCostScale 1 must decide bit-identically to
// OnStreamArrival. Policies that do not implement it admit at full
// price; the discount then affects only the catalog's accounting.
type ScaledAdmissionPolicy interface {
	Policy
	// OnStreamArrivalScaled is OnStreamArrival with the guard's
	// server-cost delta scaled by serverCostScale.
	OnStreamArrivalScaled(s int, serverCostScale float64) []int
}

// OnlinePolicy drives the Section 5 Allocate algorithm. When Guarded,
// any assignment that would violate a true budget or capacity is
// filtered before commitment — the physical-world backstop for
// instances that do not satisfy the small-streams hypothesis (a policy
// server would never oversubscribe the plant). The guard is answered by
// an incremental mmd.LoadLedger in O(measures) per candidate; the
// full-rescan CheckFeasible it replaced survives as the reference the
// differential tests compare against.
type OnlinePolicy struct {
	in        *mmd.Instance
	norm      *online.Normalization
	allocator *online.Allocator
	guarded   bool
	assn      *mmd.Assignment
	// ledger mirrors assn (guarded mode only; nil otherwise) so guarded
	// admission is a delta query instead of a fleet rescan.
	ledger *mmd.LoadLedger
	// scale records the server-cost charge scale of streams admitted at
	// a discount by the rescan reference guard (ledger == nil; the
	// ledger path records its own scales). Absent streams were charged
	// full price. It keeps the reference guard's scaled rescans
	// comparable to LoadLedger.FitsDeltaScaled, so differential tests
	// can compare the two paths under SharedOrigin, not just Isolated.
	scale map[int]float64
	// kept is the guarded-admission scratch buffer, reused across
	// arrivals: the caller (Tenant.OfferStreamScaled) filters the
	// returned users into its own slice before storing, so the policy
	// never needs a fresh allocation per admission.
	kept []int
	// savedUtility keeps the zeroed utility rows of away users (gateway
	// churn, see UserChurnPolicy).
	savedUtility map[int][]float64
	// spare and spareLedger are the buffers Reinstall builds the next
	// allocator and ledger in before swapping them with the running
	// ones; the first Reinstall creates them.
	spare       *online.Allocator
	spareLedger *mmd.LoadLedger
}

var (
	_ Policy                = (*OnlinePolicy)(nil)
	_ ScaledAdmissionPolicy = (*OnlinePolicy)(nil)
	_ ReinstallablePolicy   = (*OnlinePolicy)(nil)
)

// NewOnlinePolicy builds the policy for the instance. guarded should be
// true unless the instance satisfies online.CheckSmallStreams.
func NewOnlinePolicy(in *mmd.Instance, guarded bool) (*OnlinePolicy, error) {
	return newOnlinePolicy(in, guarded, guarded)
}

// NewRescanOnlinePolicy builds the guarded online policy with the
// retained pre-ledger guard: every candidate is trial-added and the
// whole fleet state is re-verified with Assignment.CheckFeasibleScaled
// (full price under Isolated; recorded charge scales under a shared
// catalog, mirroring the ledger's accounting). It is kept (not deleted)
// as the reference implementation the differential determinism tests
// and BenchmarkGuardedAdmission compare the ledger path against —
// under both the Isolated and SharedOrigin cost models; production
// callers should use NewOnlinePolicy.
func NewRescanOnlinePolicy(in *mmd.Instance) (*OnlinePolicy, error) {
	return newOnlinePolicy(in, true, false)
}

// newOnlinePolicy is the shared constructor; withLedger selects the
// incremental guard (guarded mode only), and a guarded policy without a
// ledger runs the reference full-rescan guard.
func newOnlinePolicy(in *mmd.Instance, guarded, withLedger bool) (*OnlinePolicy, error) {
	norm, err := online.Normalize(in)
	if err != nil {
		return nil, fmt.Errorf("headend: online policy: %w", err)
	}
	al, err := online.NewAllocator(norm.Instance, norm.Mu())
	if err != nil {
		return nil, fmt.Errorf("headend: online policy: %w", err)
	}
	p := &OnlinePolicy{
		in:        in,
		norm:      norm,
		allocator: al,
		guarded:   guarded,
		assn:      mmd.NewAssignment(in.NumUsers()),
	}
	if guarded && withLedger {
		p.ledger = mmd.NewLoadLedger(in)
	}
	return p, nil
}

// Name implements Policy.
func (p *OnlinePolicy) Name() string {
	if p.guarded {
		return "online-allocate-guarded"
	}
	return "online-allocate"
}

// OnStreamArrival implements Policy.
func (p *OnlinePolicy) OnStreamArrival(s int) []int {
	return p.OnStreamArrivalScaled(s, 1)
}

// OnStreamArrivalScaled implements ScaledAdmissionPolicy: the guard's
// server-cost delta is priced at serverCostScale (the shared-catalog
// discount; see mmd.LoadLedger.AddScaled). The allocator's competitive
// pricing is unchanged — the discount is a physical-plant fact (the
// origin is already transcoded elsewhere), not a utility signal — only
// the feasibility backstop prices the cheaper delta. Scale 1 is
// bit-identical to the PR 3 path. The retained rescan reference
// (NewRescanOnlinePolicy) guards the same way at scale: each trial
// rescan prices every carried stream at its recorded charge scale and
// the candidate at serverCostScale (Assignment.CheckFeasibleScaled), so
// the differential tests compare the two guards under SharedOrigin as
// well as Isolated.
func (p *OnlinePolicy) OnStreamArrivalScaled(s int, serverCostScale float64) []int {
	users := p.allocator.Offer(s)
	if !p.guarded {
		for _, u := range users {
			p.assn.Add(u, s)
		}
		return users
	}
	if p.ledger == nil {
		// Reference path (NewRescanOnlinePolicy): trial-add each
		// candidate and rescan the whole fleet state. With no discounts
		// anywhere the walk is exactly the pre-catalog CheckFeasible.
		var scaleOf func(int) float64
		if serverCostScale != 1 || len(p.scale) > 0 {
			scaleOf = func(stream int) float64 {
				if stream == s {
					return serverCostScale
				}
				if sc, ok := p.scale[stream]; ok {
					return sc
				}
				return 1
			}
		}
		kept := p.kept[:0]
		for _, u := range users {
			p.assn.Add(u, s)
			if p.assn.CheckFeasibleScaled(p.in, scaleOf) != nil {
				p.assn.Remove(u, s)
				continue
			}
			kept = append(kept, u)
		}
		p.kept = kept
		if len(kept) > 0 && serverCostScale != 1 {
			if p.scale == nil {
				p.scale = make(map[int]float64)
			}
			p.scale[s] = serverCostScale
		}
		return kept
	}
	// Guarded mode: admit users one by one, dropping any that would
	// break a true constraint. The running assignment is always
	// feasible (it starts empty, admissions are guarded, and removals
	// only shed load), so the ledger's O(measures) delta query decides
	// the same question a full CheckFeasible rescan after a trial Add
	// would — up to float accumulation order (the ledger sums in event
	// order, the rescan in stream order; see the LoadLedger doc). The
	// differential tests pin the two paths to identical decisions on
	// the E10/E12 workloads.
	kept := p.kept[:0]
	for _, u := range users {
		if !p.ledger.FitsDeltaScaled(u, s, serverCostScale) {
			continue
		}
		p.ledger.AddScaled(u, s, serverCostScale)
		p.assn.Add(u, s)
		kept = append(kept, u)
	}
	p.kept = kept
	return kept
}

// Assignment returns the running assignment.
func (p *OnlinePolicy) Assignment() *mmd.Assignment { return p.assn }

// Normalization exposes mu and the competitive bound for reports.
func (p *OnlinePolicy) Normalization() *online.Normalization { return p.norm }

// Reinstall implements ReinstallablePolicy: an allocator over the same
// normalized instance (away users keep their zeroed utility rows) is
// reset to empty and charged with the installed assignment, so the
// exponential costs restart from the installed load rather than the
// accumulated online history. The allocator and the guard ledger are
// built in spare buffers and swapped with the running ones only when
// both are ready; the previous ones become the spares. The first spare
// allocator comes from online.NewAllocator, and since the instance
// never changes, a reset one is the same as a new one.
func (p *OnlinePolicy) Reinstall(assn *mmd.Assignment) error {
	al := p.spare
	if al == nil {
		var err error
		if al, err = online.NewAllocator(p.norm.Instance, p.norm.Mu()); err != nil {
			return fmt.Errorf("headend: online reinstall: %w", err)
		}
	} else {
		al.Reset()
	}
	al.Install(assn)
	p.allocator, p.spare = al, p.allocator
	// Streams the new lineup retains keep the charge scale they were
	// admitted at: their shared-catalog origin is still paid for
	// elsewhere, so re-pricing them at full cost would overstate the
	// budget draw and desynchronize the guard from the refund recorded
	// at departure. Only streams the install dropped lose their entry;
	// fresh pickups are full price until a scaled admission says
	// otherwise.
	for s := range p.scale {
		if !assn.InRange(s) {
			delete(p.scale, s)
		}
	}
	if p.ledger != nil {
		// The ledger variant records its scales internally: the spare
		// is rebuilt reading the retained streams' scales from the
		// running ledger (1 for pickups), then swapped in.
		if p.spareLedger == nil {
			p.spareLedger = mmd.NewLoadLedger(p.in)
		}
		p.spareLedger.RebuildScaled(assn, p.ledger.ChargeScale)
		p.ledger, p.spareLedger = p.spareLedger, p.ledger
	}
	p.assn.CopyFrom(assn)
	return nil
}

// ThresholdPolicy is the deployed-world baseline: admit a stream while
// every budget stays under margin*B_i, deliver to every interested user
// with headroom, utilities ignored.
type ThresholdPolicy struct {
	in         *mmd.Instance
	margin     float64
	serverCost []float64
	userLoad   [][]float64
	assn       *mmd.Assignment
	// interested[s] lists the users with positive utility for stream s
	// in increasing index order — the delivery list an arrival walks
	// instead of scanning all |U| users.
	interested [][]int
	// away marks gateways currently offline (see UserChurnPolicy).
	away map[int]bool
}

var _ Policy = (*ThresholdPolicy)(nil)

// NewThresholdPolicy builds the baseline with the given safety margin in
// (0, 1].
func NewThresholdPolicy(in *mmd.Instance, margin float64) (*ThresholdPolicy, error) {
	if margin <= 0 || margin > 1 {
		return nil, fmt.Errorf("headend: threshold margin must be in (0, 1]; got %v", margin)
	}
	p := &ThresholdPolicy{
		in:         in,
		margin:     margin,
		serverCost: make([]float64, in.M()),
		userLoad:   make([][]float64, in.NumUsers()),
		assn:       mmd.NewAssignment(in.NumUsers()),
		interested: in.InterestedUsers(),
	}
	for u := range p.userLoad {
		p.userLoad[u] = make([]float64, len(in.Users[u].Capacities))
	}
	return p, nil
}

// Name implements Policy.
func (p *ThresholdPolicy) Name() string { return "threshold" }

// OnStreamArrival implements Policy.
func (p *ThresholdPolicy) OnStreamArrival(s int) []int {
	for i, c := range p.in.Streams[s].Costs {
		if p.serverCost[i]+c > p.margin*p.in.Budgets[i]+1e-12 {
			return nil
		}
	}
	var kept []int
	for _, u := range p.interested[s] {
		usr := &p.in.Users[u]
		if p.away[u] {
			continue
		}
		fits := true
		for j := range usr.Capacities {
			if p.userLoad[u][j]+usr.Loads[j][s] > p.margin*usr.Capacities[j]+1e-12 {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for j := range usr.Capacities {
			p.userLoad[u][j] += usr.Loads[j][s]
		}
		p.assn.Add(u, s)
		kept = append(kept, u)
	}
	if len(kept) > 0 {
		for i, c := range p.in.Streams[s].Costs {
			p.serverCost[i] += c
		}
	}
	return kept
}

// Assignment returns the running assignment.
func (p *ThresholdPolicy) Assignment() *mmd.Assignment { return p.assn }

// Reinstall implements ReinstallablePolicy: server costs and per-user
// loads are recomputed from scratch for the installed assignment —
// each user's own stream set is walked directly (O(pairs) instead of
// the old range × users × Has scan) — then swapped in together with a
// clone of it. Away gateways stay away.
func (p *ThresholdPolicy) Reinstall(assn *mmd.Assignment) error {
	serverCost := make([]float64, p.in.M())
	userLoad := make([][]float64, p.in.NumUsers())
	for u := range userLoad {
		userLoad[u] = make([]float64, len(p.in.Users[u].Capacities))
	}
	for _, s := range assn.Range() {
		if s < 0 || s >= p.in.NumStreams() {
			return fmt.Errorf("headend: threshold reinstall: stream %d out of range", s)
		}
		for i, c := range p.in.Streams[s].Costs {
			serverCost[i] += c
		}
	}
	for u := 0; u < assn.NumUsers() && u < p.in.NumUsers(); u++ {
		usr := &p.in.Users[u]
		for _, s := range assn.UserStreams(u) {
			for j := range usr.Capacities {
				userLoad[u][j] += usr.Loads[j][s]
			}
		}
	}
	p.assn = assn.Clone()
	p.serverCost = serverCost
	p.userLoad = userLoad
	return nil
}

// deliveryLists inverts a precomputed assignment into per-stream
// delivery lists: deliver[s] holds the users assigned stream s in
// increasing index order. Reveal-style policies (oracle, static greedy)
// serve arrivals from these lists in O(|deliver[s]|) instead of an
// O(|U|) Has scan per event. The lists share no memory with assn.
func deliveryLists(assn *mmd.Assignment) [][]int {
	n := 0
	if r := assn.Range(); len(r) > 0 {
		n = r[len(r)-1] + 1
	}
	deliver := make([][]int, n)
	for u := 0; u < assn.NumUsers(); u++ {
		for _, s := range assn.UserStreams(u) {
			deliver[s] = append(deliver[s], u)
		}
	}
	return deliver
}

// deliverFrom returns the delivery list for stream s (nil when s is
// outside the precomputed lineup).
func deliverFrom(deliver [][]int, s int) []int {
	if s < 0 || s >= len(deliver) {
		return nil
	}
	return deliver[s]
}

// OraclePolicy solves the whole instance offline with the Theorem 1.1
// pipeline and reveals the precomputed assignment as streams arrive —
// the natural upper reference for online policies.
type OraclePolicy struct {
	name    string
	assn    *mmd.Assignment
	deliver [][]int
}

var _ Policy = (*OraclePolicy)(nil)

// NewOraclePolicy precomputes the offline solution.
func NewOraclePolicy(in *mmd.Instance, opts core.Options) (*OraclePolicy, error) {
	a, _, err := core.Solve(in, opts)
	if err != nil {
		return nil, fmt.Errorf("headend: oracle policy: %w", err)
	}
	return &OraclePolicy{name: "offline-oracle", assn: a, deliver: deliveryLists(a)}, nil
}

// Name implements Policy.
func (p *OraclePolicy) Name() string { return p.name }

// OnStreamArrival implements Policy. The returned slice is shared
// between calls for the same stream; callers must not mutate it.
func (p *OraclePolicy) OnStreamArrival(s int) []int {
	return deliverFrom(p.deliver, s)
}

// Assignment returns the precomputed assignment.
func (p *OraclePolicy) Assignment() *mmd.Assignment { return p.assn }

// Reinstall implements ReinstallablePolicy: the oracle reveals the
// installed assignment for future arrivals instead of its original
// offline precomputation.
func (p *OraclePolicy) Reinstall(assn *mmd.Assignment) error {
	p.assn = assn.Clone()
	p.deliver = deliveryLists(p.assn)
	return nil
}

// StaticGreedyPolicy replays the utility-blind static-density baseline
// as an arrival policy (it pre-ranks using full knowledge, making it a
// strong-ish baseline despite ignoring residual utilities).
type StaticGreedyPolicy struct {
	assn    *mmd.Assignment
	deliver [][]int
}

var _ Policy = (*StaticGreedyPolicy)(nil)

// NewStaticGreedyPolicy precomputes the static-greedy assignment.
func NewStaticGreedyPolicy(in *mmd.Instance) (*StaticGreedyPolicy, error) {
	a, err := baseline.StaticGreedy(in)
	if err != nil {
		return nil, fmt.Errorf("headend: static greedy policy: %w", err)
	}
	return &StaticGreedyPolicy{assn: a, deliver: deliveryLists(a)}, nil
}

// Name implements Policy.
func (p *StaticGreedyPolicy) Name() string { return "static-greedy" }

// Reinstall implements ReinstallablePolicy (see OraclePolicy.Reinstall).
func (p *StaticGreedyPolicy) Reinstall(assn *mmd.Assignment) error {
	p.assn = assn.Clone()
	p.deliver = deliveryLists(p.assn)
	return nil
}

// OnStreamArrival implements Policy. The returned slice is shared
// between calls for the same stream; callers must not mutate it.
func (p *StaticGreedyPolicy) OnStreamArrival(s int) []int {
	return deliverFrom(p.deliver, s)
}

// NewPolicyByName builds a named admission policy for an instance:
// "online" (guarded Section 5 Allocate, the default for an empty
// name), "online-unguarded", "threshold" (margin 1), "oracle"
// (offline Theorem 1.1), or "static" (static-density greedy). It is
// the single name-to-policy factory shared by the experiments, the
// cluster, and the public API.
func NewPolicyByName(in *mmd.Instance, name string) (Policy, error) {
	if in == nil {
		return nil, fmt.Errorf("headend: policy %q: nil instance", name)
	}
	switch name {
	case "", "online":
		return NewOnlinePolicy(in, true)
	case "online-unguarded":
		return NewOnlinePolicy(in, false)
	case "threshold":
		return NewThresholdPolicy(in, 1)
	case "oracle":
		return NewOraclePolicy(in, core.Options{})
	case "static":
		return NewStaticGreedyPolicy(in)
	default:
		return nil, fmt.Errorf("headend: unknown policy %q", name)
	}
}
