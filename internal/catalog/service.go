package catalog

// Service is the registry protocol surface a cluster's serving path
// drives, and so the calls a fleet node sends: the three-step
// acquire/admit/settle pricing protocol, its batched forms, the binding
// lookup and the deterministic snapshot. *Registry implements it
// in-process; a fleet node implements it against a remote registry
// process over the v4 NDJSON wire (see internal/catalog/remote) — each
// call is already one self-contained operation the registry serializes,
// so the wire lift changes the transport, never the protocol.
//
// The durability-log plane (SetLogger, ReplayAcquire, ReplaySettle and
// DanglingPending, see walog.go) is not part of it: only a cluster with
// a WAL calls those, and such a cluster always builds its own
// in-process *Registry.
//
// Implementations must preserve the registry's semantics exactly:
// every Acquire balanced by exactly one settlement echoing the
// ticket's OriginPayer flag, SettleBatch applied in submission order
// (the worker-FIFO settlement contract), and Snapshot deterministic in
// sorted ID order.
type Service interface {
	// Acquire prices an admission and records a provisional reference
	// (see Registry.Acquire).
	Acquire(id ID, tenant int) (Ticket, error)
	// AcquireBatch prices admissions of ids by one tenant in one call
	// (one round trip over the wire), writing one ticket per id into
	// out (whose length must equal len(ids)).
	AcquireBatch(tenant int, ids []ID, out []Ticket) error
	// Lookup returns the tenant's local stream index for id.
	Lookup(id ID, tenant int) (int, error)
	// Release drops a confirmed (held) or provisional reference.
	Release(id ID, tenant int, held, origin bool) (refs int, evicted bool)
	// SettleBatch applies an ordered settlement run in one call (one
	// round trip over the wire); out, when non-nil, receives one result
	// per op.
	SettleBatch(ops []Settlement, out []SettleResult) error
	// Snapshot returns the deterministic registry state (nil after
	// Close).
	Snapshot() *Snapshot
	// Close releases the caller's handle on the registry. The
	// in-process Registry marks itself closed; a remote client closes
	// its connection and leaves the registry serving its other nodes.
	Close()
}

// Registry implements Service in-process.
var _ Service = (*Registry)(nil)
