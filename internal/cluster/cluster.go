// Package cluster operates many neighborhood head-ends as one fleet:
// the sharded, multi-tenant serving layer the paper's Fig. 1 implies
// but never builds. Each tenant is one independent head-end instance
// (an admission policy plus its running assignment, wrapped by
// headend.Tenant); the cluster pins every tenant to exactly one shard,
// and each shard runs a single worker goroutine that owns its tenants
// outright — no locks, no shared mutable state between shards.
//
// # Shard / window / determinism contract
//
// Events (stream arrivals, stream departures, gateway leaves/joins,
// offline re-solves) are routed to the owning shard over a buffered
// channel, and the shard's worker applies each one the moment it
// dequeues it, strictly in submission order per shard — the paper's
// online allocator decides every arrival alone, in arrival order. The
// worker writes each result into the event's in-flight entry, flushes
// the catalog settlements a message produced in one registry call, and
// only then delivers the message's results.
//
// Admission windows are counted, never buffered: a window is a run of
// consecutive arrivals on one shard, and it closes at the next
// non-arrival event, at the Options.BatchSize-th fire-and-forget
// arrival, at an arrival carrying an in-flight entry (counted in it), at
// a batch (see ApplyBatch), at a snapshot barrier, or at shutdown —
// never by a timer — so the per-shard window stats (ShardStats.Batches
// and MaxBatch) are a pure function of the submission sequence.
//
// # Request/response sessions (serving API v2)
//
// The public surface is typed and per operation: OfferStream,
// DepartStream, UserLeave, UserJoin, and Resolve (and the catalog calls
// OfferCatalogStream and DepartCatalogStream) each route one event to
// the owning shard with a pooled in-flight entry attached and block
// until the worker writes a typed result into it (OfferResult,
// DepartResult, ChurnResult, ResolveResult, CatalogResult). Every one
// of them is a projection of Apply, which takes a routed Event and
// returns its StreamResult: the same request path a streamed event
// takes — route, then assembleResult (see stream.go and session.go) —
// and ApplyBatch sends its events as one shard message with one
// in-flight entry each, whose results the same assembleResult builds.
// The fire-and-forget replay path (RunWorkload, recovery) sends events
// without an entry. Failures use the sentinel taxonomy in session.go
// (ErrUnknownTenant, ErrQueueFull, ErrClosed, ErrCanceled,
// ErrNotDurable) and the enqueue side honors Options.Backpressure.
//
// Because tenant-to-shard placement changes only at a Reshard barrier
// and every per-tenant mutation happens on its shard's worker in
// submission order, a fixed submission sequence produces bit-identical
// per-tenant snapshots regardless of the shard count, and the fleet
// report is byte-identical across invocations (the reduction in
// Snapshot walks tenants and shards in index order — the same pattern
// as the band fan-out in internal/core). Wall-clock throughput is the
// only thing sharding changes.
//
// # Serving hot path
//
// The default tenant policy (guarded online admission) decides each
// candidate with an incremental mmd.LoadLedger in O(measures) rather
// than a full per-candidate feasibility rescan, and the per-tenant
// snapshots taken at barriers ride mmd.Assignment's sorted-slice
// representation (allocation-free Utility/range reads). The ledger path
// is pinned bit-identical to the retained rescan reference by the
// differential tests in this package and internal/headend.
//
// # Fleet catalog (serving API v3)
//
// With Options.Catalog, streams gain fleet-wide identity: a catalog.ID
// names the same stream across tenants, whatever local index each
// tenant's instance knows it by. OfferCatalogStream/DepartCatalogStream
// admit and release by ID; a registry (internal/catalog: every
// operation runs inline on the caller's goroutine under the registry's
// one mutex, or over the wire when the registry is remote) maintains
// cross-shard reference counts, and a pluggable cost model prices each
// admission from the current count.
// Under catalog.Isolated (the default) every admission is full price
// and results are bit-identical to the pre-catalog path; under
// catalog.SharedOrigin the first admitting tenant pays the full
// origin/transcode cost, later tenants the replication fraction — the
// guard asks the tenant's feasibility ledger with the discounted delta
// — and the last departure evicts the origin. Snapshot embeds the
// registry state (reference counts, origin savings) when a catalog is
// configured.
//
// # Streaming ingestion (serving API v4)
//
// OpenStream returns a StreamConn, a persistent pipelined session over
// the same request path: one goroutine Submits events without waiting,
// another Recvs typed results in submission order, and a bounded
// in-flight window is the backpressure point: a full window parks
// Submit until a result is received or its ctx is done.
// Catalog events ride streams with no special casing because the shard
// worker settles every fleet reference in FIFO order — see stream.go.
// The HTTP face of this surface lives in internal/httpserve
// (POST /v1/stream) with repro/streamclient as the wire client.
//
// ARCHITECTURE.md (repo root) maps how this layer sits between the
// head-end and the serving front end, and which invariants the
// differential tests pin.
package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/headend"
	"repro/internal/mmd"
	"repro/internal/wal"
)

// EventType discriminates cluster events.
type EventType int

// Event kinds routed to shard workers.
const (
	// EventStreamArrival offers Event.Stream to the tenant's policy.
	EventStreamArrival EventType = iota + 1
	// EventStreamDeparture removes a carried stream.
	EventStreamDeparture
	// EventUserLeave takes gateway Event.User offline.
	EventUserLeave
	// EventUserJoin brings gateway Event.User back online.
	EventUserJoin
	// EventResolve re-runs the offline pipeline for the tenant:
	// monitoring by default, installing when Event.Install is set (see
	// headend.Tenant.Resolve).
	EventResolve
)

// Event is one unit of work for a tenant. It is the internal routing
// record behind the per-operation session methods and the Workload
// replay schedule; it is no longer the public submission surface.
type Event struct {
	// Tenant is the target tenant index.
	Tenant int
	// Type selects the action.
	Type EventType
	// Stream is the stream index (arrival/departure events).
	Stream int
	// User is the gateway index (leave/join events).
	User int
	// Install asks a resolve event to install the offline assignment
	// (see Cluster.Resolve and headend.Tenant.Resolve).
	Install bool
	// CostScale prices an arrival's server-cost delta (0 means 1, full
	// price). Set by the catalog path (OfferCatalogStream) from the
	// cost model's ticket; see headend.Tenant.OfferStreamScaled.
	CostScale float64
	// CatalogID marks a catalog-managed arrival or departure. The
	// worker settles the fleet reference (commit or recharge on admit,
	// release on reject or removal — classified against its own
	// held-reference set) after applying the event and before its
	// result goes out, so registry transitions follow shard FIFO order
	// exactly — caller ordering races cannot desynchronize refcounts
	// from tenant state.
	// Set only by the catalog session methods; a departure with no
	// CatalogID still settles a held reference when its local stream is
	// catalog-bound (the worker resolves the binding itself).
	CatalogID catalog.ID
	// originPayer echoes catalog.Ticket.OriginPayer for a catalog
	// arrival: the acquisition was quoted the full origin cost, and the
	// settlement that balances it must say so. Set only by the acquire
	// paths inside this package (never caller-visible).
	originPayer bool
	// session and SessionSeq tie the event to a resumable session: its
	// ID, stamped only by a session stream, and the client-assigned seq
	// (1-based), cleared on every other event. They never affect how
	// the event applies; the WAL logs them so that Recover can rebuild
	// each session's applied set (see resume.go).
	session    string
	SessionSeq uint64
}

// scale returns the arrival's effective server-cost scale.
func (ev Event) scale() float64 {
	if ev.CostScale == 0 {
		return 1
	}
	return ev.CostScale
}

// TenantSnapshot is the per-tenant summary (see headend.TenantSnapshot).
type TenantSnapshot = headend.TenantSnapshot

// TenantConfig describes one tenant of the cluster.
type TenantConfig struct {
	// Instance is the tenant's workload (cable-TV conventions).
	Instance *mmd.Instance
	// Policy is the admission policy; nil builds the guarded online
	// policy (the production-safe default).
	Policy headend.Policy
}

// Options configures a Cluster.
type Options struct {
	// Shards is the number of worker goroutines (default
	// min(GOMAXPROCS, tenants)). Results are independent of Shards.
	Shards int
	// BatchSize caps a shard's admission window of fire-and-forget
	// arrivals (RunWorkload, recovery replay) at this many (default 16).
	// Every arrival is admitted the moment its worker dequeues it, so
	// BatchSize shapes only the shard table (ShardStats.Batches and
	// MaxBatch), never a result.
	BatchSize int
	// QueueDepth is the per-shard event channel buffer (default 256).
	QueueDepth int
	// ResolveEvery triggers an offline re-solve of a tenant after every
	// N churn events (departures, leaves, joins) it processes; 0
	// disables churn-triggered re-solves. Churn-triggered re-solves are
	// monitoring only; use Resolve with ResolveOptions.Install to
	// install.
	ResolveEvery int
	// Backpressure selects the enqueue behavior when a shard queue is
	// full: BackpressureBlock (default) or BackpressureReject.
	Backpressure Backpressure
	// Catalog configures the fleet-level shared-stream catalog (serving
	// API v3); nil disables the catalog surface and the catalog session
	// methods fail with ErrNoCatalog.
	Catalog *CatalogOptions
	// WAL configures the durability subsystem (serving API v5): every
	// applied event is appended to the owning shard's write-ahead log
	// segment before its result is delivered, checkpoints fence the log
	// with verified state renders, Recover rebuilds a crashed fleet from
	// the directory, and Reshard rotates the log to the new writer set.
	// nil disables durability entirely (the hot path is unchanged). See
	// wal.go in this package.
	WAL *WALOptions
}

// CatalogOptions configures the fleet catalog: which streams have
// fleet-wide identity and how later admissions are priced.
type CatalogOptions struct {
	// Streams binds fleet-wide catalog IDs to per-tenant local stream
	// indexes (see catalog.Binding).
	Streams []catalog.Binding
	// CostModel prices admissions from the current reference count; nil
	// means catalog.Isolated (full price everywhere — bit-identical to
	// the pre-catalog serving path). Ignored when Remote is set — the
	// remote registry prices with its own model.
	CostModel catalog.CostModel
	// Remote injects an already-connected catalog service client
	// (serving API v7, see internal/catalog/remote) instead of building
	// an in-process registry: refcounts and pricing live with the
	// remote owner, shared by every node of a multi-process fleet.
	// Streams is still required — the cluster keeps its own binding
	// tables for worker-side settlement classification — and must match
	// the bindings the remote registry was built with. Remote cannot be
	// combined with Options.WAL: the WAL logs and replays the registry's
	// operations through an in-process *catalog.Registry, and a
	// multi-process fleet logs nothing.
	Remote catalog.Service
}

func (o Options) withDefaults(tenants int) Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Shards > tenants {
		o.Shards = tenants
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// ShardStats summarizes one shard worker's activity: what the current
// worker has applied since it started. Reshard starts new workers, so
// the shard table restarts at zero after a reshard (the per-tenant
// tables, which carry each tenant's own counts, do not).
type ShardStats struct {
	// Shard is the shard index; Tenants is how many tenants it owns.
	Shard, Tenants int
	// Events counts all processed events. Batches counts admission
	// windows (runs of consecutive arrivals, closed as the package
	// comment describes) and MaxBatch is the longest one.
	Events, Batches, MaxBatch int
	// Arrivals..Resolves break Events down by type (Admitted counts
	// arrivals that delivered to at least one user).
	Arrivals, Admitted, Departures, Leaves, Joins, Resolves int
}

// message is the shard channel payload: an event (with the caller's
// in-flight entry, nil for fire-and-forget replay), a single-tenant
// event batch when batch is non-nil, even empty (see ApplyBatch; acks[i]
// is batch[i]'s entry), or a snapshot barrier when snap is non-nil. An
// entry's completion channel always has room for the delivery (see
// streamPending, StreamConn.acks and ApplyBatch), so the worker never
// blocks delivering a result, even when the caller has abandoned the
// call on context cancellation.
type message struct {
	ev    Event
	ack   *streamPending
	batch []Event
	acks  []streamPending
	snap  *barrier
}

// barrier is one snapshot barrier in flight: the snapshot under
// construction, into which each shard worker writes its own ShardStats
// entry and its own tenants' rows, and the channel each worker then
// replies on with its latched error (capacity len(shards), so no worker
// blocks).
type barrier struct {
	fs   *FleetSnapshot
	done chan error
}

type shard struct {
	id      int
	tenants []int
	ch      chan message
	done    chan struct{}

	// Worker-owned state below; read by others only via barrier replies
	// or after done is closed. window counts the arrivals of the open
	// admission window (0 when none is open).
	stats  ShardStats
	err    error
	window int

	// Settlement buffer, worker-owned and reused across messages: the
	// catalog settlements one message produces, in apply order, flushed
	// to the registry in one SettleBatch call before the message's
	// results go out (see flushSettles). settleTo[k] is the result whose
	// refs/evicted settles[k] backfills (nil for none).
	settles   []catalog.Settlement
	settleTo  []*result
	settleRes []catalog.SettleResult

	// Durability plane, worker-owned. wal is the shard's segment
	// appender (nil with no WAL, and during recovery replay — replayed
	// events are already in the log). replay suppresses catalog
	// settlements while the registry is rebuilt from its own log plane;
	// it is flipped off at go-live, while the worker is provably idle.
	//
	// Under SyncBatch the worker defers result delivery onto its pending
	// group (pendAcks) and hands the group to the shard's
	// committer goroutine, which fsyncs both planes' segments before
	// delivering the group's results: pipelined group commit, with at
	// most one group in flight (inFlight). While it is, the worker keeps
	// applying and appending to the next group; the committer returns
	// each delivered group on idle, and its emptied slices (spare) back
	// the group after next — so each shard owns exactly two ack slices.
	wal       *wal.Appender
	replay    bool
	deferAcks bool
	pendAcks  []*streamPending
	spare     commitGroup
	inFlight  bool
	commits   chan commitGroup
	idle      chan commitGroup
}

// commitGroup is one deferred-acknowledgement group handed from a
// shard worker to its committer and back: make the carried appenders
// durable, then deliver the results. The committer returns it emptied,
// with err set to the commit's failure.
type commitGroup struct {
	wal, cat *wal.Appender
	acks     []*streamPending
	err      error
}

// Cluster is a sharded multi-tenant head-end service. The session
// methods (OfferStream, DepartStream, UserLeave, UserJoin, Resolve),
// Snapshot, and Close are safe for concurrent use; events for the same
// tenant are applied in submission order.
type Cluster struct {
	opts    Options
	tenants []*headend.Tenant
	shardOf []int
	shards  []*shard
	// catalog is the fleet-level shared-stream registry (nil when
	// Options.Catalog is nil); see OfferCatalogStream. It is the
	// in-process *catalog.Registry unless Options.Catalog.Remote
	// injected a wire client against a registry owned by another
	// process (the fleet catalog service, serving API v7).
	catalog catalog.Service
	// registry is catalog when it is the in-process *catalog.Registry,
	// else nil. The WAL plane logs and replays the registry's operations
	// through it; a cluster with a WAL always has one.
	registry *catalog.Registry
	// catalogBindings is the binding table (Options.Catalog.Streams):
	// the in-process registry's own, or the cluster's copy when the
	// registry is remote. catalogIndex answers a catalog event's local
	// stream index from it, so a departure costs no registry call — and
	// a node whose registry is remote no round trip.
	catalogBindings catalog.Bindings
	// catalogLocals[tenant] lists the tenant's catalog bindings in
	// Options.Catalog.Streams order — the worker walks it after an
	// installing re-solve to find fleet streams the new lineup dropped,
	// so their references can be released (see applyEvent).
	catalogLocals [][]catalogLocal
	// catalogByLocal[tenant] inverts the binding table (local stream
	// index → fleet ID) so a local-index departure of a catalog-bound
	// stream can settle its fleet reference on the worker exactly like a
	// by-ID departure (see applyEvent) — a plain DepartStream must not
	// leak the reference.
	catalogByLocal []map[int]catalog.ID
	// heldCatalog[tenant] is the worker-maintained set of fleet streams
	// the tenant holds a confirmed reference for. Every reference
	// transition is settled by the owning shard worker, so the set is
	// exact, lock-free, and lets the install-reconcile path release
	// only references actually held (no registry round trips for the
	// rest of the catalog).
	heldCatalog []map[catalog.ID]bool
	// churn[tenant] counts the churn events (departures, leaves, joins)
	// the tenant has applied, for Options.ResolveEvery. Only the
	// tenant's owning worker writes it, and a reshard hands it to the
	// tenant's next worker with the rest of the tenant's state.
	churn []int

	// Hot-path pools. Ownership rule for every pooled entry and
	// completion channel: the side that *receives* the reply recycles
	// it, and only after draining it — a call abandoned on context
	// cancellation never recycles (the worker may still deliver into
	// it), it leaves it to the garbage collector instead. Snapshot's
	// barrier follows the same rule: it comes from a pool, and Snapshot
	// returns it only after every shard replied.
	callPool    sync.Pool // *streamPending with its own one-slot done channel
	barrierPool sync.Pool // *barrier, done capacity len(shards)

	mu     sync.RWMutex
	closed bool

	// Durability plane; see wal.go. wlog is the live log: nil when
	// Options.WAL is nil, and during recovery replay until the log goes
	// live (see goLive). walSeq is the global sequence counter every
	// worker and the registry's logger stamp from; walCatApp is the
	// catalog plane's active appender, loaded by the registry's logger
	// and by every worker's commit hand-off, stored at rotation.
	// ckptKick/ckptQuit/ckptDone drive the automatic checkpoint
	// goroutine; ckptEvery is Options.WAL.CheckpointEvery as the
	// worker-side modulus.
	wlog      *wal.Log
	walSeq    atomic.Uint64
	walCatApp atomic.Pointer[wal.Appender]
	ckptKick  chan struct{}
	ckptQuit  chan struct{}
	ckptDone  chan struct{}
	ckptEvery uint64
	sessMu    sync.Mutex
	sessions  map[string]*session // resumable sessions by ID (resume.go)
}

// New builds the cluster and starts one worker per shard. Tenant i is
// pinned to shard i mod Shards. With Options.WAL the durability log is
// opened fresh (an existing log in the directory is an error — use
// Recover to rebuild from one).
func New(tenants []TenantConfig, opts Options) (*Cluster, error) {
	c, err := newCluster(tenants, opts, false)
	if err != nil {
		return nil, err
	}
	if c.opts.WAL != nil {
		if err := c.walStart(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// newCluster builds the cluster object and starts the workers. replay
// marks a cluster being rebuilt from a durability log (recovery): its
// workers suppress catalog settlements — the registry is rebuilt from
// its own log plane — and append nothing (no appenders are attached
// until go-live).
func newCluster(tenants []TenantConfig, opts Options, replay bool) (*Cluster, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("cluster: need at least one tenant")
	}
	opts = opts.withDefaults(len(tenants))
	c := &Cluster{
		opts:     opts,
		tenants:  make([]*headend.Tenant, len(tenants)),
		shardOf:  make([]int, len(tenants)),
		churn:    make([]int, len(tenants)),
		sessions: make(map[string]*session),
	}
	if opts.WAL != nil {
		c.ckptEvery = uint64(max(opts.WAL.CheckpointEvery, 0))
	}
	for i, cfg := range tenants {
		if cfg.Instance == nil {
			return nil, fmt.Errorf("cluster: tenant %d: nil instance", i)
		}
		pol := cfg.Policy
		if pol == nil {
			var err error
			pol, err = headend.NewPolicyByName(cfg.Instance, "online")
			if err != nil {
				return nil, fmt.Errorf("cluster: tenant %d: %w", i, err)
			}
		}
		t, err := headend.NewTenant(cfg.Instance, pol)
		if err != nil {
			return nil, fmt.Errorf("cluster: tenant %d: %w", i, err)
		}
		c.tenants[i] = t
	}
	if opts.Catalog != nil {
		// Each (tenant, local stream) pair may back at most one catalog
		// ID: two IDs sharing a local stream would let a departure by
		// one ID strand the other's confirmed reference forever.
		c.catalogLocals = make([][]catalogLocal, len(c.tenants))
		c.catalogByLocal = make([]map[int]catalog.ID, len(c.tenants))
		for _, b := range opts.Catalog.Streams {
			for tenant, s := range b.Local {
				if tenant < 0 || tenant >= len(c.tenants) {
					return nil, fmt.Errorf("cluster: catalog %q: tenant %d out of range [0,%d)",
						b.ID, tenant, len(c.tenants))
				}
				if n := c.tenants[tenant].Instance().NumStreams(); s >= n {
					return nil, fmt.Errorf("cluster: catalog %q: tenant %d stream %d out of range [0,%d)",
						b.ID, tenant, s, n)
				}
				if prev, dup := c.catalogByLocal[tenant][s]; dup {
					return nil, fmt.Errorf("cluster: catalog %q: tenant %d stream %d already bound to %q",
						b.ID, tenant, s, prev)
				}
				if c.catalogByLocal[tenant] == nil {
					c.catalogByLocal[tenant] = make(map[int]catalog.ID)
				}
				c.catalogByLocal[tenant][s] = b.ID
				c.catalogLocals[tenant] = append(c.catalogLocals[tenant],
					catalogLocal{id: b.ID, local: s})
			}
		}
		if opts.Catalog.Remote != nil {
			if opts.WAL != nil {
				return nil, fmt.Errorf("cluster: a remote catalog registry cannot be combined with a WAL (the WAL logs the registry's operations in process, and a multi-process fleet logs nothing)")
			}
			bindings, err := catalog.NewBindings(opts.Catalog.Streams)
			if err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
			c.catalog, c.catalogBindings = opts.Catalog.Remote, bindings
		} else {
			reg, err := catalog.NewRegistry(opts.Catalog.Streams, opts.Catalog.CostModel)
			if err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
			c.catalog, c.registry, c.catalogBindings = reg, reg, reg.Bindings()
		}
		c.heldCatalog = make([]map[catalog.ID]bool, len(c.tenants))
		for i := range c.heldCatalog {
			c.heldCatalog[i] = make(map[catalog.ID]bool)
		}
	}
	c.startShards(opts.Shards, replay)
	return c, nil
}

// startShards pins tenant i to shard i mod n and starts one worker per
// shard (plus its committer under group commit). newCluster calls it
// once; Reshard calls it again after the previous workers have
// stopped, so the new workers take over the same tenants, registry,
// binding tables, held-reference sets and churn counters.
func (c *Cluster) startShards(n int, replay bool) {
	c.shards = make([]*shard, n)
	for s := range c.shards {
		sh := &shard{
			id:        s,
			ch:        make(chan message, c.opts.QueueDepth),
			done:      make(chan struct{}),
			replay:    replay,
			deferAcks: c.opts.WAL != nil && c.opts.WAL.Sync == wal.SyncBatch,
		}
		for i := s; i < len(c.tenants); i += n {
			c.shardOf[i] = s
			sh.tenants = append(sh.tenants, i)
		}
		sh.stats.Shard = s
		sh.stats.Tenants = len(sh.tenants)
		c.shards[s] = sh
		if sh.deferAcks {
			// One group is in flight at a time, so one slot each way
			// never blocks.
			sh.commits = make(chan commitGroup, 1)
			sh.idle = make(chan commitGroup, 1)
			go c.committer(sh)
		}
		go c.worker(sh)
	}
}

// Reshard hands the fleet's tenants to newShards new shard workers
// (clamped to the tenant count) without stopping service: under the
// write lock it runs the barrier Checkpoint and Close use — every
// queued event applies and every deferred ack is delivered — stops the
// old workers, and starts the new ones over the same tenants, registry,
// binding tables and held-reference sets; tenant i moves to shard
// i mod newShards. With a live WAL the log rotates to the new writer
// set behind a "reshard" manifest carrying the barrier's renders.
//
// Results are unchanged by construction — the same shard-count
// invariance the differential tests pin — and the global sequence
// keeps every per-tenant order intact across any layout change.
// Concurrent Reshard calls serialize on the write lock; sessions keep
// working throughout (StreamConns included — their tenant moves shard
// transparently). ShardStats restart at zero with the new workers.
func (c *Cluster) Reshard(newShards int) error {
	if newShards <= 0 {
		return fmt.Errorf("cluster: reshard: need at least one shard, got %d", newShards)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	newShards = min(newShards, len(c.tenants))
	if newShards == len(c.shards) {
		return nil
	}
	fs, err := c.barrierSnapshot()
	if err != nil {
		return err
	}
	if c.wlog != nil {
		m := c.manifestFor(fs, "reshard")
		m.Shards = newShards
		if err := c.wlog.Rotate(&m, wal.ShardWriters(newShards, c.catalog != nil)); err != nil {
			return err
		}
	}
	// The barrier left every queue empty and the write lock keeps it so:
	// the old workers exit at once, and their exit orders every tenant
	// mutation before the new workers start.
	for _, sh := range c.shards {
		close(sh.ch)
	}
	for _, sh := range c.shards {
		<-sh.done
	}
	c.startShards(newShards, false)
	if c.wlog != nil {
		return c.attachAppenders()
	}
	return nil
}

// NumTenants returns the number of tenants.
func (c *Cluster) NumTenants() int { return len(c.tenants) }

// NumShards returns the number of shard workers (it changes across a
// live Reshard).
func (c *Cluster) NumShards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.shards)
}

// ShardOf returns the shard owning tenant i (it changes across a live
// Reshard).
func (c *Cluster) ShardOf(i int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shardOf[i]
}

// Snapshot flushes every shard (a barrier: all queued events are
// applied first) and returns the aggregated fleet state. The reduction
// walks tenants and shards in index order, so the snapshot — and
// everything rendered from it — is deterministic for a deterministic
// submission sequence.
func (c *Cluster) Snapshot() (*FleetSnapshot, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	return c.barrierSnapshot()
}

// barrierSnapshot runs the shard barrier and aggregates the fleet
// state. Requires c.mu held: read-held for Snapshot (concurrent
// submissions just land behind the barrier messages), write-held for
// the durability quiesce points (checkpoint, reshard, close) —
// enqueue holds the read lock through its channel send, so the write
// lock additionally guarantees no send is in flight and the queues
// stay empty until release.
func (c *Cluster) barrierSnapshot() (*FleetSnapshot, error) {
	// Every worker writes its rows straight into the snapshot and
	// replies on the pooled barrier, which goes back to its pool only
	// after every shard replied, so a pooled barrier is never in flight.
	// The capacity re-check matters after a reshard grows the fleet.
	b, _ := c.barrierPool.Get().(*barrier)
	if b == nil || cap(b.done) < len(c.shards) {
		b = &barrier{done: make(chan error, len(c.shards))}
	}
	fs := &FleetSnapshot{
		Shards:     len(c.shards),
		Tenants:    make([]headend.TenantSnapshot, len(c.tenants)),
		ShardStats: make([]ShardStats, len(c.shards)),
	}
	b.fs = fs
	for _, sh := range c.shards {
		sh.ch <- message{snap: b}
	}
	var firstErr error
	for range c.shards {
		if err := <-b.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.fs = nil
	c.barrierPool.Put(b)
	if firstErr != nil {
		return nil, firstErr
	}
	if c.catalog != nil {
		// Taken after every shard barrier replied, so all catalog
		// traffic submitted-and-acknowledged before Snapshot is
		// reflected; the registry renders entries in sorted ID order,
		// keeping the section deterministic.
		fs.Catalog = c.catalog.Snapshot()
	}
	fs.SumTenants()
	return fs, nil
}

// Close drains and stops all shard workers (queued request/response
// events still receive their results). It is idempotent; the session
// methods and Snapshot fail with ErrClosed after Close. The first
// worker error (a failed re-solve, or a latched WAL append error) is
// returned. With a live WAL, Close quiesces the fleet and seals the
// log with a "close" manifest, so the next Recover verifies its full
// replay against the final state.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	var closeMan *wal.Manifest
	if c.wlog != nil {
		if fs, err := c.barrierSnapshot(); err == nil {
			m := c.manifestFor(fs, "close")
			closeMan = &m
		}
	}
	c.closed = true
	for _, sh := range c.shards {
		close(sh.ch)
	}
	c.mu.Unlock()
	var firstErr error
	for _, sh := range c.shards {
		<-sh.done
		if sh.err != nil && firstErr == nil {
			firstErr = sh.err
		}
	}
	if c.ckptQuit != nil {
		close(c.ckptQuit)
		<-c.ckptDone
	}
	if c.catalog != nil {
		c.catalog.Close()
	}
	if c.wlog != nil {
		if err := c.wlog.Close(closeMan); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// worker is the shard event loop: FIFO, one event applied at a time,
// each message's catalog settlements flushed in one registry call
// before its results are delivered. Under the WAL's SyncBatch policy,
// result delivery is deferred (see deliver) and the loop hands the
// pending group to the shard's committer at every commit point the
// committer is idle for: the queue momentarily empty, or — when a group
// was still in flight then — the committer going idle while the queue
// is. At commitGroupBound pending results, a barrier, or shutdown it
// waits for the committer instead. Only delivery is deferred: what
// applies, and the admission windows, stay a pure function of the
// submission sequence.
func (c *Cluster) worker(sh *shard) {
	defer close(sh.done)
	process := func(msg message) {
		switch {
		case msg.snap != nil:
			// A barrier closes the open window and is a commit point:
			// everything applied so far is made durable and acknowledged
			// before the reply, so the barrier's snapshot covers only
			// acknowledged state.
			sh.window = 0
			c.drainCommits(sh)
			msg.snap.fs.ShardStats[sh.id] = sh.stats
			for _, i := range sh.tenants {
				msg.snap.fs.Tenants[i] = c.tenants[i].Snapshot()
			}
			msg.snap.done <- sh.err
		case msg.batch != nil:
			// A batch (ApplyBatch) closes the open window, and each run of
			// arrivals inside it is one window, however long.
			sh.window = 0
			for i := range msg.batch {
				c.apply(sh, msg.batch[i], &msg.acks[i])
			}
			sh.window = 0
			c.flushSettles(sh)
			for i := range msg.acks {
				c.deliver(sh, &msg.acks[i])
			}
		default:
			c.apply(sh, msg.ev, msg.ack)
			// An arrival whose caller waits on its entry closes its window,
			// as does the BatchSize-th fire-and-forget one. Whether an event
			// carries an entry is part of the submission sequence, so the
			// windows stay a pure function of it.
			if msg.ack != nil || sh.window >= c.opts.BatchSize {
				sh.window = 0
			}
			c.flushSettles(sh)
			if msg.ack != nil {
				c.deliver(sh, msg.ack)
			}
		}
	}
	for {
		msg, ok := message{}, true
		if sh.inFlight && len(sh.pendAcks) > 0 {
			// A group waits for the committer: wake for it as well as for
			// traffic, or its results would wait for traffic that may
			// never come.
			select {
			case msg, ok = <-sh.ch:
			case g := <-sh.idle:
				c.committed(sh, g)
				c.handOff(sh)
				continue
			}
		} else {
			msg, ok = <-sh.ch
		}
		if !ok {
			break
		}
		process(msg)
		// Drain the burst without blocking, then commit at the point
		// the queue goes momentarily empty — the group-commit heuristic
		// that amortizes one fsync over however many events arrived
		// while the previous group was being written.
		for ok {
			select {
			case msg, ok = <-sh.ch:
				if ok {
					process(msg)
				}
			default:
				ok = false
			}
		}
		c.releaseAcks(sh)
	}
	c.drainCommits(sh)
	if sh.deferAcks {
		close(sh.commits)
		<-sh.idle // closed once the committer has exited
	}
}

// deliver hands one event's result, already written into its in-flight
// entry, to the caller: it sends the entry on its completion channel —
// immediately, or, under SyncBatch, once the entry's group is durable
// (the result must not reach the caller before its log record is; the
// committer fsyncs the segment before delivering the group).
func (c *Cluster) deliver(sh *shard, p *streamPending) {
	if sh.deferAcks {
		if sh.pendAcks == nil { // either of the two slices, at its first use
			sh.pendAcks = make([]*streamPending, 0, c.groupBound())
		}
		sh.pendAcks = append(sh.pendAcks, p)
		c.maybeRelease(sh)
		return
	}
	p.done <- p
}

// commitGroupBound caps a shard's deferred-acknowledgement group, in
// events, under sustained load (an idle moment releases the group
// regardless — see the worker's queue-empty release). The bound is a
// durability batching window, not a queue depth: it exists so a
// saturating submitter cannot defer acknowledgements without limit,
// and every event under it shares one fsync. 2048 events is a few
// milliseconds of apply work — the same order as the device flush it
// amortizes — so raising it further adds ack latency without removing
// syncs, and lowering it multiplies fsyncs under exactly the load
// where they hurt.
const commitGroupBound = 2048

// groupBound is commitGroupBound, or the configured queue depth if
// larger.
func (c *Cluster) groupBound() int { return max(commitGroupBound, c.opts.QueueDepth) }

// maybeRelease bounds the pending group at groupBound so a saturating
// submitter cannot defer acknowledgements without limit: a full group
// waits for the committer to go idle — the disk's backpressure — and
// is handed off at once.
func (c *Cluster) maybeRelease(sh *shard) {
	if len(sh.pendAcks) >= c.groupBound() {
		if sh.inFlight {
			c.committed(sh, <-sh.idle)
		}
		c.handOff(sh)
	}
}

// releaseAcks is the queue-empty commit point: it hands the shard's
// pending group to the committer if no group is in flight. Otherwise
// the group keeps growing and rides the next fsync; the worker hands it
// off when the committer goes idle (see worker). A no-op outside
// SyncBatch.
func (c *Cluster) releaseAcks(sh *shard) {
	if len(sh.pendAcks) == 0 {
		return
	}
	if sh.inFlight {
		select {
		case g := <-sh.idle:
			c.committed(sh, g)
		default:
			return
		}
	}
	c.handOff(sh)
}

// handOff hands the pending group — with the two planes' appenders (the
// registry's settlements for the group's events are already in the
// catalog appender's buffer) — to the idle committer, which fsyncs and
// then delivers every deferred result in order. The worker continues
// at once with the spare slices.
func (c *Cluster) handOff(sh *shard) {
	sh.commits <- commitGroup{wal: sh.wal, cat: c.walCatApp.Load(), acks: sh.pendAcks}
	sh.pendAcks = sh.spare.acks
	sh.spare, sh.inFlight = commitGroup{}, true
}

// committed takes a delivered group back from the committer: its
// slices become the spare, and a commit failure is latched as the
// shard's error.
func (c *Cluster) committed(sh *shard, g commitGroup) {
	if g.err != nil && sh.err == nil {
		sh.err = g.err
	}
	sh.spare, sh.inFlight = g, false
}

// drainCommits commits and delivers every deferred result — the barrier
// step that makes a snapshot cover only acknowledged, durable state. A
// no-op outside SyncBatch.
func (c *Cluster) drainCommits(sh *shard) {
	for sh.inFlight || len(sh.pendAcks) > 0 {
		if sh.inFlight {
			c.committed(sh, <-sh.idle)
		} else {
			c.handOff(sh)
		}
	}
}

// committer is the shard's group-commit daemon: for each group the
// worker hands off it makes both planes' segments durable, then
// delivers the group's deferred results in order and hands the group
// back — an acknowledged event is on disk before its caller unblocks,
// while the worker's apply loop never waits on an fsync below
// commitGroupBound. Everything the worker applied while the previous
// fsync ran shares this one (Appender.Commit covers everything
// appended before the call), so a pipelined submitter pays roughly one
// fsync per disk latency, not per ack group.
func (c *Cluster) committer(sh *shard) {
	defer close(sh.idle)
	for g := range sh.commits {
		if g.wal != nil {
			g.err = g.wal.Commit()
		}
		if g.cat != nil {
			if err := g.cat.Commit(); g.err == nil {
				g.err = err
			}
		}
		// Acks are truthful: a group whose commit failed delivers
		// ErrNotDurable to every caller instead of a success the disk
		// never backed. The appender error is latched, so every later
		// group fails the same way until the cluster is torn down and
		// recovered.
		var notDurable error
		if g.err != nil {
			notDurable = fmt.Errorf("%w: %v", ErrNotDurable, g.err)
		}
		for _, p := range g.acks {
			if notDurable != nil {
				p.res.err = notDurable
			}
			p.done <- p
		}
		clear(g.acks)
		sh.idle <- commitGroup{acks: g.acks[:0], err: g.err}
	}
}

// settle buffers one catalog settlement the worker decided, with the
// result whose refs/evicted it backfills (nil for none — install
// reconciliation, or an event without an entry). During log replay the
// registry is rebuilt from its own plane (the registry's serialization
// order — see internal/catalog), so the worker keeps classifying, to
// maintain its held-reference sets, but buffers nothing.
func (c *Cluster) settle(sh *shard, s catalog.Settlement, to *result) {
	if sh.replay {
		return
	}
	sh.settles = append(sh.settles, s)
	sh.settleTo = append(sh.settleTo, to)
}

// flushSettles sends the settlements one message produced to the
// registry in one SettleBatch call and backfills per-event reference
// state into the results. The worker calls it after applying the
// message and before delivering any of its results, so ordering is
// exact: every registry transition — arrival settlements, departure
// releases, install reconciliation — rides this single ordered buffer.
func (c *Cluster) flushSettles(sh *shard) {
	if len(sh.settles) == 0 {
		return
	}
	if cap(sh.settleRes) < len(sh.settles) {
		sh.settleRes = make([]catalog.SettleResult, len(sh.settles))
	}
	res := sh.settleRes[:len(sh.settles)]
	if err := c.catalog.SettleBatch(sh.settles, res); err == nil {
		for k, to := range sh.settleTo {
			if to != nil {
				to.refs, to.evicted = res[k].Refs, res[k].Evicted
			}
		}
	}
	clear(sh.settleTo)
	sh.settles, sh.settleTo = sh.settles[:0], sh.settleTo[:0]
}

// apply applies one event on the worker goroutine, counts it into the
// shard stats and admission windows, and writes its result into p, the
// event's in-flight entry — nil for a fire-and-forget event (RunWorkload,
// recovery replay), whose result nobody reads. Its catalog settlements
// go onto the shard's buffer (see settle), which the worker flushes
// after the write and before delivery.
func (c *Cluster) apply(sh *shard, ev Event, p *streamPending) {
	if sh.wal != nil {
		c.logEvent(sh, &ev)
	}
	sh.stats.Events++
	var to *result
	if p != nil {
		to = &p.res
	}
	var res result
	if ev.Type == EventStreamArrival {
		if sh.window == 0 {
			sh.stats.Batches++
		}
		sh.window++
		sh.stats.MaxBatch = max(sh.stats.MaxBatch, sh.window)
		res = c.applyArrival(sh, ev, to)
	} else {
		sh.window = 0
		res = c.applyEvent(sh, ev, to)
	}
	if p != nil {
		p.res = res
	}
}

// applyArrival admits one stream arrival and returns the typed
// decision. The utility sum is computed only when a caller will read it
// (to, the event's result in its entry, is non-nil); fire-and-forget
// arrivals skip it. For a catalog-managed arrival the fleet reference
// is settled in shard FIFO order: commit on admit, release of the
// provisional reference on reject, recharge accounting for an admission
// under an existing reference (Ticket.Already).
func (c *Cluster) applyArrival(sh *shard, ev Event, to *result) result {
	t := c.tenants[ev.Tenant]
	sh.stats.Arrivals++
	users := t.OfferStreamScaled(ev.Stream, ev.scale())
	if len(users) > 0 {
		sh.stats.Admitted++
	}
	res := result{offer: OfferResult{Accepted: len(users) > 0, Subscribers: users}}
	if to != nil {
		in := t.Instance()
		for _, u := range users {
			res.offer.Utility += in.Users[u].Utility[ev.Stream]
		}
	}
	if ev.CatalogID != "" && c.catalog != nil {
		// The held-reference set is maintained by this worker alongside
		// every registry transition for the tenant, so it decides
		// commit-vs-recharge exactly — a caller-side classification
		// could be stale by the time the event is applied.
		s := catalog.Settlement{ID: ev.CatalogID, Tenant: ev.Tenant, Origin: ev.originPayer}
		switch held := c.heldCatalog[ev.Tenant]; {
		case !res.offer.Accepted:
			s.Op = catalog.SettleReleasePending
		case held[ev.CatalogID]:
			// The tenant already holds the reference but the local
			// stream had been dropped out of band: a real admission
			// under the existing reference, charged at the scale the
			// guard actually priced (a holder's ticket is full price;
			// only exotic interleaves carry a discount here).
			s.Op = catalog.SettleRecharge
			s.Full = t.Instance().StreamCostSum(ev.Stream)
			s.Charged = ev.scale() * s.Full
		default:
			s.Op = catalog.SettleCommit
			s.Full = t.Instance().StreamCostSum(ev.Stream)
			s.Charged = ev.scale() * s.Full
			held[ev.CatalogID] = true
		}
		c.settle(sh, s, to)
	}
	return res
}

// applyEvent handles every non-arrival event and the churn-triggered
// re-solve policy, returning the typed result. to is the event's
// result in its entry, nil for an event with no caller to inform
// (fire-and-forget replay), whose resolve errors latch as the shard's
// first error.
func (c *Cluster) applyEvent(sh *shard, ev Event, to *result) result {
	t := c.tenants[ev.Tenant]
	var res result
	churned := false
	switch ev.Type {
	case EventStreamDeparture:
		sh.stats.Departures++
		carried := t.Carries(ev.Stream)
		users := t.DepartStream(ev.Stream)
		res.depart = DepartResult{Removed: carried, Subscribers: users}
		if c.catalog != nil {
			// Settle the fleet reference in shard FIFO order (see
			// applyArrival) — for a by-ID departure and equally for a
			// local-index departure of a catalog-bound stream (the worker
			// resolves the binding itself, so a plain DepartStream cannot
			// leak the reference). A held reference is released even when
			// nothing was carried (Removed false): that is the cleanup of
			// a stream whose local subscription was already gone. A by-ID
			// departure with no held reference issues the release anyway:
			// the registry remove is a no-op (an occupied-but-empty entry
			// never persists across operations, so it cannot evict), and
			// it reports the refs the caller asked about.
			id, byID := ev.CatalogID, ev.CatalogID != ""
			if !byID {
				id = c.catalogByLocal[ev.Tenant][ev.Stream]
			}
			held := c.heldCatalog[ev.Tenant]
			if id != "" && (held[id] || byID) {
				delete(held, id)
				c.settle(sh, catalog.Settlement{Op: catalog.SettleRelease, ID: id, Tenant: ev.Tenant}, to)
			}
		}
		churned = true
	case EventUserLeave:
		sh.stats.Leaves++
		wasOnline := ev.User >= 0 && ev.User < t.Instance().NumUsers() && !t.Away(ev.User)
		streams := t.UserLeave(ev.User)
		res.churn = ChurnResult{Changed: wasOnline, Streams: streams}
		churned = true
	case EventUserJoin:
		sh.stats.Joins++
		wasAway := t.Away(ev.User)
		t.UserJoin(ev.User)
		res.churn = ChurnResult{Changed: wasAway}
		churned = true
	case EventResolve:
		res.resolve, res.err = c.resolve(sh, ev.Tenant, ev.Install, to == nil)
		if res.err == nil && res.resolve.Installed && c.catalog != nil {
			// An install adopts the offline lineup wholesale — dropping
			// catalog-admitted streams outside it and picking up
			// catalog-bound streams inside it. The worker (which owns
			// both the tenant's carried set and its held-reference set)
			// reconciles the registry in both directions: it releases
			// exactly the references whose stream the new lineup no
			// longer carries (a retained ghost reference would discount
			// later tenants against an origin nobody pays for), and it
			// registers a full-price reference for every bound stream
			// the install picked up (a carried-but-unreferenced stream
			// would let a survivor's departure evict an origin still in
			// use). Settling here keeps registry transitions in shard
			// FIFO order and covers background installs, which have no
			// caller.
			held := c.heldCatalog[ev.Tenant]
			for _, cl := range c.catalogLocals[ev.Tenant] {
				switch carries := t.Carries(cl.local); {
				case held[cl.id] && !carries:
					c.settle(sh, catalog.Settlement{Op: catalog.SettleRelease, ID: cl.id, Tenant: ev.Tenant}, nil)
					delete(held, cl.id)
				case !held[cl.id] && carries:
					// A pickup adopts a full-price reference atomically
					// (SettleAdopt — no provisional window to balance).
					// The stream itself keeps whatever charge scale the
					// tenant's lineup retained for it (Tenant.install);
					// adoption at full price only covers streams the
					// lineup picked up without a reference.
					c.settle(sh, catalog.Settlement{Op: catalog.SettleAdopt, ID: cl.id, Tenant: ev.Tenant,
						Full: t.Instance().StreamCostSum(cl.local)}, nil)
					held[cl.id] = true
				}
			}
		}
	}
	if churned && c.opts.ResolveEvery > 0 {
		c.churn[ev.Tenant]++
		if c.churn[ev.Tenant]%c.opts.ResolveEvery == 0 {
			_, _ = c.resolve(sh, ev.Tenant, false, true)
		}
	}
	return res
}

// resolve runs one offline re-solve on the worker goroutine. A
// background resolve (churn-triggered or fire-and-forget replay) has
// no caller to inform, so its error is latched as the shard's first
// error and surfaced by Snapshot and Close; a request/response resolve
// returns the error to its caller only — a bad per-request resolve
// must not poison fleet observability.
func (c *Cluster) resolve(sh *shard, tenant int, install, background bool) (ResolveResult, error) {
	sh.stats.Resolves++
	out, err := c.tenants[tenant].Resolve(core.Options{}, install)
	if err != nil {
		err = fmt.Errorf("cluster: tenant %d: %w", tenant, err)
		if background && sh.err == nil {
			sh.err = err
		}
		return ResolveResult{}, err
	}
	return ResolveResult{
		Installed:    out.Installed,
		OnlineValue:  out.OnlineValue,
		OfflineValue: out.OfflineValue,
	}, nil
}
