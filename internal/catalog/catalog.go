// Package catalog makes streams first-class fleet entities. The paper's
// setting is a fleet of head-ends multicasting video streams; until now
// every tenant of internal/cluster was an isolated universe — a stream
// admitted by tenant 3 cost tenant 7 full price all over again, and
// nothing in the API could even say the two were carrying *the same*
// stream. The catalog supplies the missing identity (ID, stable across
// the fleet), a registry mapping each ID to the per-tenant local stream
// index it appears as, cross-shard reference counts over who currently
// carries it, and a pluggable CostModel that prices each admission from
// the current reference count.
//
// # Concurrency
//
// All mutable state (reference counts, pending acquisitions,
// accounting) sits behind one mutex, and every method runs in its
// caller's goroutine: a call is one short critical section, never a
// handoff to another goroutine. Any goroutine may call
// Acquire/Commit/Release/Snapshot concurrently; the mutex serializes
// them, so reference counts can neither tear nor double-fire an
// eviction. The immutable binding table (ID → local index) is read
// without the lock.
//
// # Admission protocol
//
// An admission is a three-step conversation (the cluster's
// OfferCatalogStream orchestrates it):
//
//  1. Acquire(id, tenant) — the registry prices the admission from the
//     confirmed reference count (CostModel.ScaleFor) and records a
//     provisional reference, so a concurrent last-departure cannot
//     evict the origin out from under an admission in flight.
//  2. The tenant's shard worker runs the admission at the ticket's
//     scale.
//  3. The worker settles the reference right after deciding — Commit
//     on success, Release(id, tenant, false) on rejection — so
//     registry transitions follow the shard's FIFO order and can never
//     desynchronize from the tenant's carried set.
//
// A departure is Release(id, tenant, true), likewise settled by the
// worker; when the last reference (confirmed and provisional both
// zero) leaves an occupied entry, the origin is evicted — exactly once
// per occupancy cycle. Because commits and confirmed releases are
// issued in shard-application order, a confirmed release always finds
// its commit already applied; releasing a reference the tenant does
// not hold is therefore a harmless no-op (standalone users must
// preserve that ordering).
//
// Pricing counts confirmed references plus in-flight acquisitions that
// were themselves priced at full cost (prospective origin payers): the
// first acquisition of an unoccupied origin pays full price, and every
// acquisition racing it is quoted the shared discount — exactly one
// admitter funds the origin per occupancy cycle. Quotes are honored: if
// the prospective payer's admission is later rejected, acquisitions
// already quoted keep their discount (the same stance SharedOrigin
// takes on an early departure of the full payer), and the next fresh
// acquisition is quoted full price again. Driven serially — the
// deterministic experiment and test path — pricing is a pure function
// of the call sequence.
//
// # Batched operation
//
// AcquireBatch prices a whole single-tenant event batch under one hold
// of the lock (each acquisition sees the ones before it in the batch,
// exactly as if they had been submitted back to back), and SettleBatch
// applies a shard worker's ordered settlement run — commits, recharges,
// releases, install adoptions — likewise. Both write results into
// caller-owned buffers, so a worker can reuse its settlement scratch
// across shard messages without allocation; over the remote wire each
// is one round trip.
//
// ARCHITECTURE.md (repo root) places this layer in the system map and
// lists the refcount-equals-carriage invariants the tests pin.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/buf"
)

// ID is a stable fleet-wide stream identity. Two tenants bound to the
// same ID carry the same stream, whatever local catalog index each one
// knows it by.
type ID string

// CostModel prices a catalog admission from the number of tenants
// already confirmed to carry the stream. Implementations must be pure
// functions (the registry calls them under its lock; determinism of
// snapshots depends on it).
type CostModel interface {
	// Name identifies the model in snapshots and reports.
	Name() string
	// ScaleFor returns the server-cost scale charged to a tenant
	// admitting the stream when refs tenants already hold it. Scale 1
	// is full price; the guarded admission path prices its feasibility
	// delta at this scale (mmd.LoadLedger.FitsDeltaScaled). The value
	// must lie in (0, 1]: zero would be indistinguishable from the
	// Event sentinel for "unset" on the serving path, so out-of-range
	// values are clamped to full price by the registry.
	ScaleFor(refs int) float64
}

// clampScale enforces the ScaleFor contract: values outside (0, 1]
// charge full price.
func clampScale(scale float64) float64 {
	if scale <= 0 || scale > 1 {
		return 1
	}
	return scale
}

// Isolated is the default cost model: every tenant pays full price, as
// if the catalog did not exist. Admissions under Isolated are
// bit-identical to the pre-catalog serving path.
type Isolated struct{}

// Name implements CostModel.
func (Isolated) Name() string { return "isolated" }

// ScaleFor implements CostModel: always full price.
func (Isolated) ScaleFor(int) float64 { return 1 }

// DefaultReplicationFraction is the SharedOrigin discount applied when
// the zero value is used.
const DefaultReplicationFraction = 0.25

// SharedOrigin is the regional-CDN cost model: the first admitting
// tenant pays the full origin/transcode cost; every later tenant pays
// only the multicast-replication fraction of the stream's server cost
// vector. The charge is fixed at admission time (an early departure of
// the full payer does not re-price the survivors), and the last
// departure evicts and releases the origin.
type SharedOrigin struct {
	// ReplicationFraction is the scale later tenants pay, in (0, 1].
	// Zero (the zero value) means DefaultReplicationFraction.
	ReplicationFraction float64
}

// Name implements CostModel.
func (SharedOrigin) Name() string { return "shared-origin" }

// ScaleFor implements CostModel.
func (m SharedOrigin) ScaleFor(refs int) float64 {
	if refs == 0 {
		return 1
	}
	f := m.ReplicationFraction
	if f <= 0 || f > 1 {
		f = DefaultReplicationFraction
	}
	return f
}

// Binding maps one fleet-wide ID to the local stream index each tenant
// knows it by. Tenants absent from Local cannot admit the stream.
type Binding struct {
	// ID is the fleet-wide identity.
	ID ID
	// Local maps tenant index → that tenant's local stream index.
	Local map[int]int
}

// IdentityBindings builds the fully overlapping catalog shape used by
// same-shaped fleets (every tenant knows fleet stream s by local index
// s): streams entries, each bound at all of tenants, with id naming
// entry s. It is the binding constructor shared by mmdserve, the
// benchmarks, and the experiments.
func IdentityBindings(tenants, streams int, id func(s int) ID) []Binding {
	bindings := make([]Binding, streams)
	for s := 0; s < streams; s++ {
		local := make(map[int]int, tenants)
		for t := 0; t < tenants; t++ {
			local[t] = s
		}
		bindings[s] = Binding{ID: id(s), Local: local}
	}
	return bindings
}

// Sentinel errors of the catalog registry; match with errors.Is.
var (
	// ErrUnknownID reports an ID with no binding in the registry.
	ErrUnknownID = errors.New("catalog: unknown catalog id")
	// ErrNotBound reports a tenant with no local binding for the ID.
	ErrNotBound = errors.New("catalog: stream not bound for tenant")
	// ErrClosed reports an operation on a closed registry.
	ErrClosed = errors.New("catalog: closed")
)

// Ticket is the registry's answer to Acquire: the admission's price and
// the sharing state it was priced against.
type Ticket struct {
	// Local is the tenant's local stream index for the ID.
	Local int
	// Scale is the server-cost scale this admission is charged at.
	Scale float64
	// Refs is the confirmed reference count before this admission.
	Refs int
	// SharedWith lists the other confirmed holders (ascending tenant
	// index) at decision time, nil when there are none. Lists are
	// carved from shared arrays no one writes again (buf.Lists), so a
	// ticket's holder may keep the list but must not modify it.
	SharedWith []int
	// Already reports that the tenant itself is a confirmed holder at
	// decision time (Scale is then 1 — a holder re-offer is a no-op or
	// a full-price re-admission, never a discount). A provisional
	// reference is taken regardless, so the acquisition must be
	// balanced like any other.
	Already bool
	// OriginPayer marks the acquisition that was quoted the full origin
	// cost for this occupancy cycle (no confirmed holder and no other
	// full-priced acquisition in flight at decision time). The flag must
	// be echoed back on whichever settlement balances the acquisition
	// (Settlement.Origin, or the origin argument of Commit / Release) so
	// the registry can retire the prospective-payer slot.
	OriginPayer bool
}

// entry is the state of one catalog stream, guarded by the registry's
// lock (local is the immutable binding, read without it).
type entry struct {
	id    ID
	local map[int]int
	// holders are the confirmed referencing tenants, ascending.
	holders []int
	// pending counts acquisitions whose admission is still in flight,
	// per tenant; pendingCount is their sum (the eviction gate).
	pending      map[int]int
	pendingCount int
	// fullPending counts in-flight acquisitions that were priced at the
	// full origin cost (Ticket.OriginPayer); while it is nonzero, new
	// acquisitions are quoted the shared discount even though no holder
	// has committed yet — the fix for the double-full-price race.
	fullPending int
	// occupied marks an origin brought up by a confirmed admission and
	// not yet evicted; the eviction single-fire latch.
	occupied bool

	admissions, evictions int
	fullCost, chargedCost float64
}

// Registry is the shard-safe fleet catalog: an immutable binding table
// plus reference-counting state behind one mutex. All methods are safe
// for concurrent use, and each runs in its caller's goroutine.
type Registry struct {
	model    CostModel
	bindings Bindings
	entries  map[ID]*entry // fixed key set; entry state is guarded by mu
	order    []ID          // sorted, the deterministic snapshot walk order

	mu sync.Mutex
	// logger, when set, receives every state-mutating operation in the
	// registry's serialization order, called with mu held — the
	// registry's durability log plane (see SetLogger).
	logger Logger
	closed bool
	// shared carves the tickets' SharedWith lists.
	shared buf.Lists[int]
}

// SettleOp names one registry transition a settlement applies.
type SettleOp uint8

const (
	// SettleCommit confirms a provisionally acquired reference after a
	// successful admission.
	SettleCommit SettleOp = iota + 1
	// SettleRecharge consumes a provisional reference whose admission
	// ran under an existing confirmed reference — the re-offer of a
	// fleet stream whose local subscription the holder had dropped out
	// of band (e.g. a local-index departure). The admission counter and
	// cost totals move; the confirmed count is untouched, so Snapshot's
	// origin-cost accounting stays truthful.
	SettleRecharge
	// SettleRelease drops a confirmed reference (a departure).
	SettleRelease
	// SettleReleasePending drops a provisional reference (a rejected or
	// abandoned admission).
	SettleReleasePending
	// SettleAdopt confirms a full-price reference with no prior Acquire
	// — the install-reconcile pickup of a catalog-bound stream a
	// re-solve added to the lineup. Atomic, so no provisional window.
	SettleAdopt
)

// Settlement is one ordered registry transition in a SettleBatch.
type Settlement struct {
	Op     SettleOp
	ID     ID
	Tenant int
	// Full and Charged accumulate accounting on commit / recharge /
	// adopt (adopt charges Full regardless of Charged).
	Full, Charged float64
	// Origin echoes Ticket.OriginPayer for the settlements that balance
	// an acquisition (commit, recharge, release-pending).
	Origin bool
}

// SettleResult is one settlement's outcome.
type SettleResult struct {
	// Refs is the confirmed reference count after the transition.
	Refs int
	// Evicted reports that the transition drained an occupied origin.
	Evicted bool
}

// Bindings is an immutable binding table: each catalog ID's map from
// tenant to that tenant's local stream index. A Registry answers
// Lookup from one, and an in-process cluster reads the same one; a
// cluster whose registry lives in another process keeps its own, so a
// lookup costs no round trip.
type Bindings map[ID]map[int]int

// NewBindings validates bindings and copies them into a table. IDs must
// be non-empty and unique, tenants and local indexes nonnegative.
func NewBindings(bindings []Binding) (Bindings, error) {
	t := make(Bindings, len(bindings))
	for _, b := range bindings {
		if b.ID == "" {
			return nil, fmt.Errorf("catalog: empty catalog id")
		}
		if _, dup := t[b.ID]; dup {
			return nil, fmt.Errorf("catalog: duplicate catalog id %q", b.ID)
		}
		local := make(map[int]int, len(b.Local))
		for tenant, s := range b.Local {
			if tenant < 0 || s < 0 {
				return nil, fmt.Errorf("catalog: id %q: bad binding tenant %d -> stream %d", b.ID, tenant, s)
			}
			local[tenant] = s
		}
		t[b.ID] = local
	}
	return t, nil
}

// Lookup returns the tenant's local stream index for id: ErrUnknownID
// for an ID the table does not hold, ErrNotBound for a tenant with no
// binding for it.
func (t Bindings) Lookup(id ID, tenant int) (int, error) {
	local, ok := t[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownID, id)
	}
	s, ok := local[tenant]
	if !ok {
		return 0, fmt.Errorf("%w: %q for tenant %d", ErrNotBound, id, tenant)
	}
	return s, nil
}

// NewRegistry builds the registry. Bindings must have unique IDs and
// nonnegative local indexes; model nil means Isolated.
func NewRegistry(bindings []Binding, model CostModel) (*Registry, error) {
	if model == nil {
		model = Isolated{}
	}
	table, err := NewBindings(bindings)
	if err != nil {
		return nil, err
	}
	r := &Registry{
		model:    model,
		bindings: table,
		entries:  make(map[ID]*entry, len(table)),
		order:    make([]ID, 0, len(table)),
	}
	for id, local := range table {
		r.entries[id] = &entry{id: id, local: local, pending: make(map[int]int)}
		r.order = append(r.order, id)
	}
	sort.Slice(r.order, func(i, j int) bool { return r.order[i] < r.order[j] })
	return r, nil
}

// Lookup returns the tenant's local stream index for id. The binding
// table is immutable, so no lock is taken.
func (r *Registry) Lookup(id ID, tenant int) (int, error) {
	return r.bindings.Lookup(id, tenant)
}

// Bindings returns the registry's binding table, for a caller that
// answers lookups itself. The table is immutable: read it, never write
// it.
func (r *Registry) Bindings() Bindings { return r.bindings }

// Acquire prices an admission of id by tenant and records a provisional
// reference — also when the tenant already holds a confirmed one (see
// Ticket.Already), so a concurrent departure cannot evict the origin
// while this acquisition is in flight. Every successful Acquire must be
// balanced by exactly one Commit (admission succeeded), SettleRecharge
// settlement (admission under an existing reference), or
// Release(…, held=false) (admission rejected or never ran), each
// echoing Ticket.OriginPayer.
func (r *Registry) Acquire(id ID, tenant int) (Ticket, error) {
	if _, err := r.Lookup(id, tenant); err != nil {
		return Ticket{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return Ticket{}, ErrClosed
	}
	tk := r.acquire(r.entries[id], tenant)
	if r.logger != nil {
		r.logger.LogAcquire(tenant, id, tk.Scale, tk.OriginPayer)
	}
	return tk, nil
}

// AcquireBatch prices admissions of ids by one tenant under one hold of
// the lock, writing one ticket per id into out (whose length must
// equal len(ids)). Each acquisition is priced as if submitted right
// after the one before it — the first fresh acquisition of an
// unoccupied origin in the batch is the origin payer, later ones get
// the shared discount. All bindings are validated up front; on error no
// reference is taken. Every ticket must be balanced exactly like a
// single Acquire's.
func (r *Registry) AcquireBatch(tenant int, ids []ID, out []Ticket) error {
	if len(out) != len(ids) {
		return fmt.Errorf("catalog: AcquireBatch: %d ids but %d ticket slots", len(ids), len(out))
	}
	for _, id := range ids {
		if _, err := r.Lookup(id, tenant); err != nil {
			return err
		}
	}
	if len(ids) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	for i, id := range ids {
		out[i] = r.acquire(r.entries[id], tenant)
		if r.logger != nil {
			r.logger.LogAcquire(tenant, id, out[i].Scale, out[i].OriginPayer)
		}
	}
	return nil
}

// Commit confirms a provisionally acquired reference after a successful
// admission, accumulating the accounting (fullCost is the undiscounted
// scalar server cost, chargedCost the discounted one actually charged);
// origin echoes the ticket's OriginPayer flag. It returns the confirmed
// reference count after the commit.
func (r *Registry) Commit(id ID, tenant int, fullCost, chargedCost float64, origin bool) int {
	return r.settle(Settlement{Op: SettleCommit, ID: id, Tenant: tenant, Full: fullCost, Charged: chargedCost, Origin: origin}).Refs
}

// Release drops a reference: held true releases a confirmed reference
// (a departure), held false a provisional one (a rejected admission,
// which must echo the ticket's OriginPayer flag as origin). It returns
// the confirmed count after the release and whether this release
// evicted the origin (last reference of an occupied entry — fires
// exactly once per occupancy cycle).
func (r *Registry) Release(id ID, tenant int, held, origin bool) (refs int, evicted bool) {
	op := SettleReleasePending
	if held {
		op = SettleRelease
	}
	res := r.settle(Settlement{Op: op, ID: id, Tenant: tenant, Origin: origin})
	return res.Refs, res.Evicted
}

// settle applies the one settlement of Commit or Release: a zero result
// on a closed registry or an unknown ID.
func (r *Registry) settle(s Settlement) SettleResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return SettleResult{}
	}
	res, _ := r.apply(s, false)
	return res
}

// SettleBatch applies a shard worker's ordered settlement run under one
// hold of the lock. When out is non-nil its length must equal len(ops)
// and each settlement's outcome is written into the matching slot;
// unknown IDs are no-ops with a zero result (matching the single-op
// methods). Both slices stay caller-owned, so workers can reuse them
// across batches.
func (r *Registry) SettleBatch(ops []Settlement, out []SettleResult) error {
	if out != nil && len(out) != len(ops) {
		return fmt.Errorf("catalog: SettleBatch: %d ops but %d result slots", len(ops), len(out))
	}
	if len(ops) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	for i, s := range ops {
		res, _ := r.apply(s, false)
		if out != nil {
			out[i] = res
		}
	}
	return nil
}

// apply applies one settlement, logging it unless it is replayed; ok
// false means an unknown ID, which changes nothing. Called with mu held
// on an open registry.
func (r *Registry) apply(s Settlement, replay bool) (res SettleResult, ok bool) {
	e := r.entries[s.ID]
	if e == nil {
		return SettleResult{}, false
	}
	res = r.settleOne(e, s)
	if r.logger != nil && !replay {
		r.logger.LogSettle(s)
	}
	return res, true
}

// Refs returns the confirmed reference count of id (0 for unknown IDs
// or after Close) without touching any state.
func (r *Registry) Refs(id ID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[id]; e != nil && !r.closed {
		return len(e.holders)
	}
	return 0
}

// Snapshot returns the deterministic registry state: entries in sorted
// ID order, holders ascending. Nil after Close.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	return r.snapshotLocked()
}

// Close closes the registry: every later call returns ErrClosed or zero
// values. A call already holding the lock completes first. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// acquire prices one admission and records the provisional reference.
// Called with mu held.
func (r *Registry) acquire(e *entry, tenant int) Ticket {
	tk := Ticket{
		Local:   e.local[tenant],
		Scale:   1,
		Refs:    len(e.holders),
		Already: e.holds(tenant),
	}
	tk.SharedWith = r.sharedWith(e, tenant, tk.Already)
	if !tk.Already {
		// Price from confirmed holders plus in-flight full-priced
		// acquisitions: concurrent first admissions see each other, so
		// exactly one is quoted the full origin cost.
		effective := len(e.holders) + e.fullPending
		tk.Scale = clampScale(r.model.ScaleFor(effective))
		if effective == 0 {
			tk.OriginPayer = true
			e.fullPending++
		}
	}
	e.pending[tenant]++
	e.pendingCount++
	return tk
}

// settleOne applies one settlement. Called with mu held.
func (r *Registry) settleOne(e *entry, s Settlement) SettleResult {
	switch s.Op {
	case SettleCommit:
		e.dropPending(s.Tenant, s.Origin)
		if !e.holds(s.Tenant) {
			e.insert(s.Tenant)
			e.occupied = true
			e.admissions++
			e.fullCost += s.Full
			e.chargedCost += s.Charged
		}
		return SettleResult{Refs: len(e.holders)}
	case SettleRecharge:
		e.dropPending(s.Tenant, s.Origin)
		e.admissions++
		e.fullCost += s.Full
		e.chargedCost += s.Charged
		return SettleResult{Refs: len(e.holders)}
	case SettleAdopt:
		if !e.holds(s.Tenant) {
			e.insert(s.Tenant)
			e.occupied = true
			e.admissions++
			e.fullCost += s.Full
			e.chargedCost += s.Full
		}
		return SettleResult{Refs: len(e.holders)}
	case SettleRelease:
		// Releasing a reference the tenant does not hold is a no-op:
		// commits and confirmed releases arrive in shard-application
		// order (the cluster worker settles both), so a "release before
		// commit" cannot occur and over-releasing must not poison later
		// admissions.
		e.remove(s.Tenant)
	case SettleReleasePending:
		e.dropPending(s.Tenant, s.Origin)
	}
	res := SettleResult{Refs: len(e.holders)}
	res.Evicted = e.maybeEvict()
	return res
}

// dropPending decrements the tenant's in-flight acquisition count and,
// when the settled acquisition was the prospective origin payer,
// retires the full-priced slot so a later fresh acquisition is quoted
// full price again.
func (e *entry) dropPending(tenant int, origin bool) {
	if e.pending[tenant] > 0 {
		e.pending[tenant]--
		e.pendingCount--
	}
	if origin && e.fullPending > 0 {
		e.fullPending--
	}
}

// maybeEvict fires the origin eviction when an occupied entry fully
// drains (no confirmed holders, no in-flight acquisitions) — exactly
// once per occupancy cycle.
func (e *entry) maybeEvict() bool {
	if e.occupied && len(e.holders) == 0 && e.pendingCount == 0 {
		e.occupied = false
		e.evictions++
		return true
	}
	return false
}

// holds reports whether tenant is a confirmed holder.
func (e *entry) holds(tenant int) bool {
	i := sort.SearchInts(e.holders, tenant)
	return i < len(e.holders) && e.holders[i] == tenant
}

// insert adds tenant to the sorted confirmed holders.
func (e *entry) insert(tenant int) {
	i := sort.SearchInts(e.holders, tenant)
	e.holders = append(e.holders, 0)
	copy(e.holders[i+1:], e.holders[i:])
	e.holders[i] = tenant
}

// remove drops tenant from the confirmed holders (no-op when absent).
func (e *entry) remove(tenant int) {
	i := sort.SearchInts(e.holders, tenant)
	if i < len(e.holders) && e.holders[i] == tenant {
		e.holders = append(e.holders[:i], e.holders[i+1:]...)
	}
}

// sharedWith returns the confirmed holders of e other than tenant
// (held reports whether tenant is one), ascending, in a list carved
// from r.shared; nil when there are none. Called with mu held.
func (r *Registry) sharedWith(e *entry, tenant int, held bool) []int {
	n := len(e.holders)
	if held {
		n--
	}
	out := r.shared.Make(n)
	i := 0
	for _, t := range e.holders {
		if t != tenant {
			out[i] = t
			i++
		}
	}
	return out
}

// EntrySnapshot is one catalog stream's state in a Snapshot.
type EntrySnapshot struct {
	// ID is the fleet-wide identity.
	ID ID `json:"id"`
	// Refs is the confirmed reference count; Holders the confirmed
	// tenants, ascending.
	Refs    int   `json:"refs"`
	Holders []int `json:"holders,omitempty"`
	// Admissions and Evictions count confirmed admissions and origin
	// evictions over the registry's lifetime.
	Admissions int `json:"admissions"`
	Evictions  int `json:"evictions"`
	// FullCost is the cumulative undiscounted scalar server cost of all
	// admissions; ChargedCost what was actually charged; Savings the
	// difference (the origin/transcode cost the sharing saved).
	FullCost    float64 `json:"full_cost"`
	ChargedCost float64 `json:"charged_cost"`
	Savings     float64 `json:"savings"`
}

// Snapshot is the deterministic registry state: entries in sorted ID
// order plus fleet-wide totals.
type Snapshot struct {
	// Model is the cost model name.
	Model string `json:"model"`
	// Streams is the number of catalog entries; ActiveShared counts
	// entries currently referenced by at least two tenants.
	Streams      int `json:"streams"`
	ActiveShared int `json:"active_shared"`
	// Admissions / Evictions are lifetime totals over all entries.
	Admissions int `json:"admissions"`
	Evictions  int `json:"evictions"`
	// FullCost / ChargedCost / OriginSavings are the fleet-wide
	// accounting totals (origin cost units: scalar sums of server cost
	// vectors).
	FullCost      float64 `json:"full_cost"`
	ChargedCost   float64 `json:"charged_cost"`
	OriginSavings float64 `json:"origin_savings"`
	// Entries holds one snapshot per catalog stream, sorted by ID.
	Entries []EntrySnapshot `json:"entries"`
}

// snapshotLocked builds the snapshot. Called with mu held.
func (r *Registry) snapshotLocked() *Snapshot {
	snap := &Snapshot{Model: r.model.Name(), Streams: len(r.order)}
	for _, id := range r.order {
		e := r.entries[id]
		es := EntrySnapshot{
			ID:          e.id,
			Refs:        len(e.holders),
			Holders:     append([]int(nil), e.holders...),
			Admissions:  e.admissions,
			Evictions:   e.evictions,
			FullCost:    e.fullCost,
			ChargedCost: e.chargedCost,
			Savings:     e.fullCost - e.chargedCost,
		}
		snap.Entries = append(snap.Entries, es)
		if es.Refs >= 2 {
			snap.ActiveShared++
		}
		snap.Admissions += es.Admissions
		snap.Evictions += es.Evictions
		snap.FullCost += es.FullCost
		snap.ChargedCost += es.ChargedCost
	}
	snap.OriginSavings = snap.FullCost - snap.ChargedCost
	return snap
}

// Render returns the snapshot as a deterministic text table.
func (s *Snapshot) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "catalog: %d streams, model %s\n", s.Streams, s.Model)
	fmt.Fprintf(&sb, "  shared     %d streams referenced by 2+ tenants\n", s.ActiveShared)
	fmt.Fprintf(&sb, "  admissions %d (%d evictions)\n", s.Admissions, s.Evictions)
	fmt.Fprintf(&sb, "  origin     %.3f full, %.3f charged, %.3f saved\n",
		s.FullCost, s.ChargedCost, s.OriginSavings)
	sb.WriteString("\ncatalog-id            refs  holders           admits  evicts  saved\n")
	for _, e := range s.Entries {
		holders := "-"
		if len(e.Holders) > 0 {
			holders = strings.Trim(strings.Join(strings.Fields(fmt.Sprint(e.Holders)), ","), "[]")
		}
		fmt.Fprintf(&sb, "%-20s  %4d  %-16s  %6d  %6d  %.3f\n",
			string(e.ID), e.Refs, holders, e.Admissions, e.Evictions, e.Savings)
	}
	return sb.String()
}
