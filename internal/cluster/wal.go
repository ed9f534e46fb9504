package cluster

// Durability subsystem (serving API v5): per-shard write-ahead
// logging, checkpointed recovery, and live resharding.
//
// # Two log planes
//
// The fleet's durable history is written on two planes, because the
// fleet has two serialization orders that cannot be derived from each
// other:
//
//   - The event plane: each shard worker appends one record per
//     applied event (arrival, departure, churn, resolve) to its own
//     segment, at apply time, before the result is delivered. The
//     record carries the event exactly as applied — including the
//     catalog cost scale and origin-payer election the admission ran
//     under — stamped with a globally unique sequence number.
//   - The registry plane: the catalog registry logs every acquisition
//     and settlement to its own segment, under its lock, in its own
//     serialization order. This plane exists because registry state is
//     not a function of per-shard event order: the eviction gate
//     counts in-flight acquisitions (a release while an acquisition is
//     pending must NOT evict), and per-shard logs lose exactly that
//     interleaving. See internal/catalog's walog.go.
//
// Recovery feeds the event plane back through the normal worker ingest
// path (global sequence order, which preserves every per-tenant
// suborder) with catalog settlements suppressed, and replays the
// registry plane directly into the registry — re-deriving every quote
// and verifying it against the logged one. After a torn crash the two
// planes may disagree about the final few references; recovery drains
// dangling acquisitions and reconciles held-versus-holders through the
// normal (logged) settlement path, so the log itself records the
// repair and every future replay reproduces it.
//
// # Checkpoints fence, they do not truncate
//
// A checkpoint quiesces the fleet (the same barrier Snapshot uses,
// under the write lock so no submission is in flight), renders the
// per-tenant tables and the catalog, writes the render into a manifest
// that fences the log at the current sequence number, and rotates
// every writer to a fresh segment generation. Recovery replays from
// genesis and byte-compares its state against each fence it crosses —
// the manifest is a verification artifact, not a restore point.
// History is deliberately not truncated: tenant policy state is an
// order-sensitive accumulation (allocator loads, ledger sums, phase
// restarts), so a faithful restore-from-snapshot would have to
// serialize every policy internals; replay-from-genesis needs nothing
// but the event codec and is exactly as deterministic as the serving
// path itself (the shard-count-invariance contract).
//
// # Resharding
//
// Reshard(n) (cluster.go) is a handoff, not a rebuild. A tenant's state
// does not depend on which worker applies its events (shard-count
// invariance), so moving it to another worker is bookkeeping: under
// the write lock the barrier applies every queued event and delivers
// every deferred ack, the old workers stop, and n new ones start over
// the same tenants, registry, binding tables and held-reference sets.
// The log's half is one rotation: with a live WAL the writers move to
// the new writer set behind a "reshard" manifest carrying the
// barrier's renders, which recovery verifies like any other fence.
// Nothing is read back or replayed, so the cost is one barrier plus
// one rotation, whatever the log's length.

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/wal"
)

// WALOptions configures the durability subsystem (Options.WAL).
type WALOptions struct {
	// Dir is the log directory (created if absent; must not already
	// hold a log — use Recover for that).
	Dir string
	// Sync is the durability policy: wal.SyncNone, wal.SyncInterval,
	// or wal.SyncBatch (group commit — an acknowledged event is
	// durable; the default zero value is SyncNone).
	Sync wal.SyncPolicy
	// CheckpointEvery takes an automatic checkpoint after roughly
	// every N logged records (0 disables automatic checkpoints;
	// explicit Checkpoint calls always work).
	CheckpointEvery int
	// FS opens segment files. Nil means the real filesystem; chaos
	// tests inject fault-scripted filesystems (internal/chaos) to
	// exercise latched fsync errors and torn tails without
	// hand-crafting corrupt segments.
	FS wal.FS
}

// ErrNoWAL reports a durability operation (Checkpoint, Recover) on a
// cluster built without Options.WAL.
var ErrNoWAL = fmt.Errorf("cluster: no WAL configured")

// RecoveryReport summarizes what Recover rebuilt.
type RecoveryReport struct {
	// Events and CatalogOps count replayed event-plane and
	// registry-plane records.
	Events     int `json:"events"`
	CatalogOps int `json:"catalog_ops"`
	// MaxSeq is the highest sequence number replayed.
	MaxSeq uint64 `json:"max_seq"`
	// CheckpointGen is the newest checkpoint generation whose manifest
	// render the replayed state was verified against (0 when the log
	// had no checkpoint); CheckpointVerified reports the byte-compare
	// passed. The one-pass replay verifies every fence in order as it
	// crosses it — FencesVerified counts them.
	CheckpointGen      int  `json:"checkpoint_gen,omitempty"`
	CheckpointVerified bool `json:"checkpoint_verified"`
	FencesVerified     int  `json:"fences_verified,omitempty"`
	// TruncatedSegments lists segment files whose torn final line was
	// truncated away (sorted).
	TruncatedSegments []string `json:"truncated_segments,omitempty"`
	// DanglingReleased counts in-flight acquisitions the crash left
	// unbalanced, drained through the normal settlement path;
	// Reconciled counts held-versus-holders repairs across the two
	// planes' torn window.
	DanglingReleased int `json:"dangling_released,omitempty"`
	Reconciled       int `json:"reconciled,omitempty"`
	// Gen is the active segment generation after recovery (the
	// "recovered" checkpoint opens it).
	Gen int `json:"gen"`
}

// walStart opens a fresh durability log for a newly built cluster
// (the New path; Recover replays an existing one first).
func (c *Cluster) walStart() error {
	l, err := wal.Open(c.walLogOptions())
	if err != nil {
		return err
	}
	if !l.Empty() {
		_ = l.Close(nil)
		return fmt.Errorf("cluster: WAL directory %q already holds a log — use Recover", c.opts.WAL.Dir)
	}
	if err := c.goLive(l); err != nil {
		return err
	}
	c.startCheckpointLoop()
	return nil
}

func (c *Cluster) walLogOptions() wal.Options {
	w := c.opts.WAL
	return wal.Options{Dir: w.Dir, Sync: w.Sync, FS: w.FS}
}

// attachAppenders points every shard worker (and the registry logger)
// at the active generation's appenders. Called only while the workers
// are provably idle: at construction before any traffic, and at
// checkpoint/reshard rotation under the write lock after the barrier
// drained — the next channel receive publishes the new pointers.
func (c *Cluster) attachAppenders() error {
	for _, sh := range c.shards {
		sh.wal = c.wlog.Appender(wal.ShardWriter(sh.id))
	}
	if c.registry != nil {
		c.walCatApp.Store(c.wlog.Appender(wal.CatalogWriter))
		if err := c.registry.SetLogger(&catalogWALLogger{c: c}); err != nil {
			return err
		}
	}
	return nil
}

// goLive puts l live: it begins the log's next generation, attaches
// the appenders and leaves replay mode. Workers must be idle (a fresh
// cluster, or a replay fed and barrier-drained, no external traffic
// yet). c.wlog is set only here, so a non-nil c.wlog is a live log.
func (c *Cluster) goLive(l *wal.Log) error {
	if err := l.Begin(wal.ShardWriters(len(c.shards), c.catalog != nil)); err != nil {
		_ = l.Close(nil)
		return err
	}
	c.wlog = l
	if err := c.attachAppenders(); err != nil {
		return err
	}
	for _, sh := range c.shards {
		sh.replay = false
	}
	return nil
}

// logEvent appends one applied event to the shard's segment, stamping
// the next global sequence number, and kicks the automatic checkpoint
// when the count crosses the configured cadence. Called on the worker
// goroutine, before the event's result is delivered.
func (c *Cluster) logEvent(sh *shard, ev *Event) {
	rec := wal.Record{
		Seq:     c.walSeq.Add(1),
		Type:    eventTokens[ev.Type],
		Tenant:  ev.Tenant,
		Stream:  ev.Stream,
		User:    ev.User,
		Install: ev.Install,
		Catalog: string(ev.CatalogID),
		Scale:   ev.CostScale,
		Origin:  ev.originPayer,
		Sess:    ev.session,
		CSeq:    ev.SessionSeq,
	}
	if err := sh.wal.Append(&rec); err != nil && sh.err == nil {
		sh.err = err
	}
	c.kickCheckpoint(rec.Seq)
}

// kickCheckpoint nudges the checkpoint goroutine (non-blocking; a kick
// while one is pending is absorbed).
func (c *Cluster) kickCheckpoint(seq uint64) {
	if c.ckptKick == nil || c.ckptEvery == 0 || seq%c.ckptEvery != 0 {
		return
	}
	select {
	case c.ckptKick <- struct{}{}:
	default:
	}
}

// startCheckpointLoop runs the automatic-checkpoint goroutine (a
// no-op unless CheckpointEvery is set).
func (c *Cluster) startCheckpointLoop() {
	if c.opts.WAL.CheckpointEvery <= 0 {
		return
	}
	c.ckptKick = make(chan struct{}, 1)
	c.ckptQuit = make(chan struct{})
	c.ckptDone = make(chan struct{})
	go func() {
		defer close(c.ckptDone)
		for {
			select {
			case <-c.ckptQuit:
				return
			case <-c.ckptKick:
				if _, err := c.Checkpoint("auto"); err != nil {
					// ErrClosed at shutdown, or a latched I/O error the
					// next explicit operation will surface.
					return
				}
			}
		}
	}()
}

// eventTokens and settleTokens spell the log's vocabulary (internal/wal's
// tokens), indexed by routed event type and by settlement op; replay
// reads them backwards with fromToken. Index 0 is neither, and spells "".
var (
	eventTokens = [...]string{
		EventStreamArrival:   wal.TypeStreamArrival,
		EventStreamDeparture: wal.TypeStreamDeparture,
		EventUserLeave:       wal.TypeUserLeave,
		EventUserJoin:        wal.TypeUserJoin,
		EventResolve:         wal.TypeResolve,
	}
	settleTokens = [...]string{
		catalog.SettleCommit:         wal.OpCommit,
		catalog.SettleRecharge:       wal.OpRecharge,
		catalog.SettleRelease:        wal.OpRelease,
		catalog.SettleReleasePending: wal.OpReleasePending,
		catalog.SettleAdopt:          wal.OpAdopt,
	}
)

// fromToken returns the index tokens spells tok at: 0 for a token it
// does not know.
func fromToken(tokens []string, tok string) int {
	for i, t := range tokens {
		if t == tok {
			return i
		}
	}
	return 0
}

// catalogWALLogger is the registry-plane appender: called under the
// registry's lock, it stamps each registry operation with the global
// sequence counter and appends it to the "catalog" segment.
type catalogWALLogger struct {
	c *Cluster
}

func (l *catalogWALLogger) LogAcquire(tenant int, id catalog.ID, scale float64, origin bool) {
	rec := wal.Record{
		Seq:     l.c.walSeq.Add(1),
		Type:    wal.TypeCatalogAcquire,
		Tenant:  tenant,
		Catalog: string(id),
		Scale:   scale,
		Origin:  origin,
	}
	_ = l.c.walCatApp.Load().Append(&rec) // latched; surfaced at commit/rotate/close
	l.c.kickCheckpoint(rec.Seq)
}

func (l *catalogWALLogger) LogSettle(s catalog.Settlement) {
	rec := wal.Record{
		Seq:     l.c.walSeq.Add(1),
		Type:    wal.TypeCatalogSettle,
		Tenant:  s.Tenant,
		Catalog: string(s.ID),
		Op:      settleTokens[s.Op],
		Full:    s.Full,
		Charged: s.Charged,
		Origin:  s.Origin,
	}
	_ = l.c.walCatApp.Load().Append(&rec)
	l.c.kickCheckpoint(rec.Seq)
}

// manifestFor renders a quiesced fleet snapshot into a checkpoint
// manifest fencing the log at the current sequence number.
func (c *Cluster) manifestFor(fs *FleetSnapshot, reason string) wal.Manifest {
	m := wal.Manifest{
		Seq:           c.walSeq.Load(),
		Shards:        len(c.shards),
		Tenants:       len(c.tenants),
		Reason:        reason,
		TenantsRender: fs.RenderTenants(),
	}
	if fs.Catalog != nil {
		m.CatalogRender = fs.Catalog.Render()
	}
	return m
}

// Checkpoint quiesces the fleet (write-lock barrier: every queued
// event applies, every pending acknowledgement delivers, nothing new
// can enqueue), writes a manifest carrying the rendered per-tenant and
// catalog state as the recovery verification artifact, and rotates
// every writer to a fresh segment generation. reason is recorded in
// the manifest ("auto" for the cadence-driven ones).
func (c *Cluster) Checkpoint(reason string) (*wal.Manifest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.wlog == nil {
		return nil, ErrNoWAL
	}
	fs, err := c.barrierSnapshot()
	if err != nil {
		return nil, err
	}
	m := c.manifestFor(fs, reason)
	if err := c.wlog.Rotate(&m, wal.ShardWriters(len(c.shards), c.catalog != nil)); err != nil {
		return nil, err
	}
	if err := c.attachAppenders(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Recover rebuilds a fleet from a durability log directory: it loads
// every segment (truncating torn final lines — the crash signature),
// replays the log in one pass in sequence order — the event plane
// through the normal worker ingest path, the registry plane into the
// registry — verifying each checkpoint fence against its manifest's
// renders as the replay crosses it (so a divergence is caught at the
// first fence after it), repairs the torn window between the two
// planes, and goes live on a fresh segment generation opened by a
// "recovered" checkpoint, every session's applied set rebuilt (see
// resume.go). tenants must be the same configs (same instances, same
// policy construction) the crashed cluster was built with — replay
// determinism is the caller's contract exactly as it is for
// shard-count invariance; opts.Shards may differ freely.
func Recover(tenants []TenantConfig, opts Options) (*Cluster, *RecoveryReport, error) {
	if opts.WAL == nil || opts.WAL.Dir == "" {
		return nil, nil, ErrNoWAL
	}
	c, err := newCluster(tenants, opts, true)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Cluster, *RecoveryReport, error) {
		c.Close()
		return nil, nil, err
	}
	l, err := wal.Open(c.walLogOptions())
	if err != nil {
		return fail(err)
	}
	replay, err := l.ReadAll()
	if err != nil {
		return fail(err)
	}
	rep := &RecoveryReport{MaxSeq: replay.MaxSeq}
	for f := range replay.Truncated {
		rep.TruncatedSegments = append(rep.TruncatedSegments, f)
	}
	sort.Strings(rep.TruncatedSegments)

	// Each fence is a verification waypoint: the rebuilt renders are
	// byte-compared against its manifest before the first record past
	// it is fed, so corruption in any window is caught at the first
	// fence after it, not only if it survives to the final render.
	fences := replay.Manifests
	verify := func(m *wal.Manifest) error {
		if m.Seq > replay.MaxSeq {
			return fmt.Errorf("cluster: recover: log ends at seq %d, before checkpoint fence %d (segments missing)",
				replay.MaxSeq, m.Seq)
		}
		if err := c.verifyManifest(m); err != nil {
			return err
		}
		rep.CheckpointGen, rep.CheckpointVerified = m.Gen, true
		rep.FencesVerified++
		return nil
	}
	for i := range replay.Records {
		r := &replay.Records[i]
		for ; len(fences) > 0 && fences[0].Seq < r.Seq; fences = fences[1:] {
			if err := verify(&fences[0]); err != nil {
				return fail(err)
			}
		}
		if err := c.feedReplay(r, rep); err != nil {
			return fail(err)
		}
	}
	for ; len(fences) > 0; fences = fences[1:] {
		if err := verify(&fences[0]); err != nil {
			return fail(err)
		}
	}
	// The last barrier: every replayed event has applied, and the
	// workers are idle for go-live.
	if _, err := c.Snapshot(); err != nil {
		return fail(err)
	}

	c.walSeq.Store(replay.MaxSeq)
	if err := c.goLive(l); err != nil {
		return fail(err)
	}
	if c.registry != nil {
		// Drain the acquisitions the crash left in flight — through the
		// normal, logged settlement path, so the log itself records the
		// drain and future replays reproduce it (including the
		// evictions it fires). Then reconcile the torn window between
		// the planes: an event record may have been durable while its
		// settlement was still buffered, or vice versa.
		dang, err := c.registry.DanglingPending()
		if err != nil {
			return fail(err)
		}
		if len(dang) > 0 {
			if err := c.catalog.SettleBatch(dang, nil); err != nil {
				return fail(err)
			}
			rep.DanglingReleased = len(dang)
		}
		n, err := c.reconcileCatalog()
		if err != nil {
			return fail(err)
		}
		rep.Reconciled = n
	}
	c.startCheckpointLoop()
	m, err := c.Checkpoint("recovered")
	if err != nil {
		return fail(err)
	}
	rep.Gen = m.Gen + 1
	return c, rep, nil
}

// verifyManifest byte-compares the cluster's current (barriered) state
// renders against a checkpoint manifest — the recovery verification.
func (c *Cluster) verifyManifest(m *wal.Manifest) error {
	if m.Tenants != len(c.tenants) {
		return fmt.Errorf("cluster: recover: log has %d tenants, config has %d", m.Tenants, len(c.tenants))
	}
	fs, err := c.Snapshot()
	if err != nil {
		return err
	}
	if got := fs.RenderTenants(); got != m.TenantsRender {
		return fmt.Errorf("cluster: recover: tenant state diverges from checkpoint gen %d (%s) at seq %d",
			m.Gen, m.Reason, m.Seq)
	}
	var catRender string
	if fs.Catalog != nil {
		catRender = fs.Catalog.Render()
	}
	if catRender != m.CatalogRender {
		return fmt.Errorf("cluster: recover: catalog state diverges from checkpoint gen %d (%s) at seq %d",
			m.Gen, m.Reason, m.Seq)
	}
	return nil
}

// feedReplay is one step of the replay: a registry-plane record
// replays synchronously into the registry, an event goes to its
// tenant's shard (fire-and-forget, exactly the normal ingest path). It
// counts the record into rep and adds it to its session's applied set.
func (c *Cluster) feedReplay(r *wal.Record, rep *RecoveryReport) error {
	if r.Sess != "" {
		c.session(r.Sess).applied.add(r.CSeq)
	}
	if r.Type == wal.TypeCatalogAcquire || r.Type == wal.TypeCatalogSettle {
		if c.registry == nil {
			return fmt.Errorf("cluster: replay: catalog record seq %d without a catalog", r.Seq)
		}
		rep.CatalogOps++
		if r.Type == wal.TypeCatalogAcquire {
			return c.registry.ReplayAcquire(catalog.ID(r.Catalog), r.Tenant, r.Scale, r.Origin)
		}
		op := catalog.SettleOp(fromToken(settleTokens[:], r.Op))
		if op == 0 {
			return fmt.Errorf("cluster: replay: unknown settle op %q", r.Op)
		}
		return c.registry.ReplaySettle(catalog.Settlement{
			Op: op, ID: catalog.ID(r.Catalog), Tenant: r.Tenant,
			Full: r.Full, Charged: r.Charged, Origin: r.Origin,
		})
	}
	typ := EventType(fromToken(eventTokens[:], r.Type))
	if typ == 0 {
		return fmt.Errorf("cluster: replay: record seq %d: unexpected type %q", r.Seq, r.Type)
	}
	if r.Tenant < 0 || r.Tenant >= len(c.tenants) {
		return fmt.Errorf("cluster: replay: record seq %d: tenant %d out of range [0,%d)",
			r.Seq, r.Tenant, len(c.tenants))
	}
	c.shards[c.shardOf[r.Tenant]].ch <- message{ev: Event{
		Tenant: r.Tenant, Type: typ, Stream: r.Stream, User: r.User, Install: r.Install,
		CostScale: r.Scale, CatalogID: catalog.ID(r.Catalog), originPayer: r.Origin,
	}}
	rep.Events++
	return nil
}

// reconcileCatalog repairs the torn window between the two log planes
// after a crash: for every (tenant, catalog stream) pair it compares
// the worker-held reference set (event-plane truth — the tenant's
// admissions are what was acknowledged) against the registry's
// confirmed holders (registry-plane truth) and settles the difference
// through the normal, logged path: a held-but-not-holding pair adopts
// a full-price reference, a holding-but-not-held pair releases it.
// Deterministic walk order (tenant ascending, bindings in catalog
// declaration order); a consistent log reconciles nothing.
func (c *Cluster) reconcileCatalog() (int, error) {
	snap := c.catalog.Snapshot()
	holding := make(map[catalog.ID]map[int]bool, len(snap.Entries))
	for _, e := range snap.Entries {
		m := make(map[int]bool, len(e.Holders))
		for _, t := range e.Holders {
			m[t] = true
		}
		holding[e.ID] = m
	}
	var fixes []catalog.Settlement
	for t := range c.tenants {
		held := c.heldCatalog[t]
		for _, cl := range c.catalogLocals[t] {
			switch {
			case held[cl.id] && !holding[cl.id][t]:
				fixes = append(fixes, catalog.Settlement{
					Op: catalog.SettleAdopt, ID: cl.id, Tenant: t,
					Full: c.tenants[t].Instance().StreamCostSum(cl.local),
				})
			case !held[cl.id] && holding[cl.id][t]:
				fixes = append(fixes, catalog.Settlement{Op: catalog.SettleRelease, ID: cl.id, Tenant: t})
			}
		}
	}
	if len(fixes) == 0 {
		return 0, nil
	}
	if err := c.catalog.SettleBatch(fixes, nil); err != nil {
		return 0, err
	}
	return len(fixes), nil
}
