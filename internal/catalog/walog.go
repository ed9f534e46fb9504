package catalog

import (
	"fmt"
	"sort"
)

// The registry's durability-log plane. The cluster's eviction gate
// counts in-flight acquisitions (entry.pendingCount, entry.fullPending)
// and quotes are honored under concurrency, so no per-shard event log
// can reproduce registry state: the only order that rebuilds it exactly
// is the registry's own serialization order, the order its lock admits
// operations in. The registry therefore writes its own log — one record
// per acquisition and per settlement, emitted under the lock right
// after applying the operation — and recovery replays that plane
// directly back into the registry, re-deriving each acquisition's quote
// from the rebuilt state and verifying it against the logged one (a
// mismatch is corruption, not a judgment call). See internal/wal and
// internal/cluster's recovery.

// Logger receives every state-mutating registry operation in the
// registry's serialization order. Implementations are called with the
// registry's lock held and must not call back into the registry.
type Logger interface {
	// LogAcquire records one priced acquisition: the quoted scale and
	// whether this acquisition was elected the origin payer.
	LogAcquire(tenant int, id ID, scale float64, origin bool)
	// LogSettle records one applied settlement.
	LogSettle(s Settlement)
}

// SetLogger installs (or, with nil, removes) the registry's operation
// logger under the registry's lock, so the change is serialized against
// every other operation. Replayed operations are never logged.
func (r *Registry) SetLogger(l Logger) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.logger = l
	return nil
}

// ReplayAcquire re-applies one logged acquisition during recovery: the
// registry re-runs the pricing against the rebuilt state and verifies
// the re-derived quote (scale, origin-payer election) against the
// logged one. The registry's operation sequence is deterministic, so a
// mismatch means the log is corrupt or misordered and recovery must
// fail loudly.
func (r *Registry) ReplayAcquire(id ID, tenant int, scale float64, origin bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	e := r.entries[id]
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownID, id)
	}
	tk := r.acquire(e, tenant)
	if tk.Scale != scale || tk.OriginPayer != origin {
		return fmt.Errorf(
			"catalog: replay acquire %q tenant %d: logged scale %v origin %v, re-derived %v %v",
			id, tenant, scale, origin, tk.Scale, tk.OriginPayer)
	}
	return nil
}

// DanglingPending returns the settlements that would balance every
// in-flight acquisition left behind by a crash (one SettleReleasePending
// per pending count, Origin set on as many as the entry's full-priced
// slots), in deterministic order: entries in the registry's sorted walk
// order, tenants ascending. Recovery applies them through the normal
// (logged) settlement path right after going live, so the log itself
// records how the danglings were drained and every future replay
// reproduces the same state — including the evictions the drain fires.
func (r *Registry) DanglingPending() ([]Settlement, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	var out []Settlement
	for _, id := range r.order {
		e := r.entries[id]
		if e.pendingCount == 0 {
			continue
		}
		fullLeft := e.fullPending
		tenants := make([]int, 0, len(e.pending))
		for t, n := range e.pending {
			if n > 0 {
				tenants = append(tenants, t)
			}
		}
		sort.Ints(tenants)
		for _, t := range tenants {
			for k := 0; k < e.pending[t]; k++ {
				s := Settlement{Op: SettleReleasePending, ID: id, Tenant: t}
				if fullLeft > 0 {
					s.Origin = true
					fullLeft--
				}
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// ReplaySettle re-applies one logged settlement during recovery,
// without re-logging it.
func (r *Registry) ReplaySettle(s Settlement) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.apply(s, true); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownID, s.ID)
	}
	return nil
}
