package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/catalog"
)

// Serving API v4: persistent streaming ingestion.
//
// A StreamConn is a long-lived, pipelined session over the cluster: the
// submitter pushes events one after another without waiting for their
// results, the shard workers apply them in submission order (per
// tenant, exactly like the single-event session methods), and the
// receiver reads one typed result per event back in submission order.
// Between the two sides sits a bounded in-flight window — the stream's
// backpressure point: when Window results are unread, Submit blocks
// until the receiver catches up or its ctx is done, so a slow reader
// can never queue unbounded state.
//
// Catalog events need no special casing: Submit hands every event to
// route, the one caller-side path a single event takes — the session
// methods, catalog calls included, are one-event uses of it (see Apply
// in session.go). For a catalog event route runs the acquire-then-route
// protocol (the registry prices the admission and takes a provisional
// reference before the event crosses the shard queue), and the shard
// worker settles the fleet reference in FIFO order after applying the
// event and before its result goes out. A connection that is dropped
// with results unread therefore leaks nothing — every enqueued event
// still applies and settles on its worker; only the results go
// unobserved.
//
// Because a streamed event and a session call share route and
// assembleResult, a streamed schedule produces bit-identical fleet
// snapshots and results to the same schedule submitted through the
// per-operation session methods — and (per-tenant tables) to ApplyBatch,
// which assembles its results with the same assembleResult — at any
// shard count. The HTTP front end exposes this surface as
// `POST /v1/stream` (NDJSON in, NDJSON out; see internal/httpserve and
// repro/streamclient).

// StreamOptions configures one StreamConn.
type StreamOptions struct {
	// Window bounds the number of in-flight events (submitted, result
	// not yet received). Default 64. Submit parks on a full window
	// until the receiver drains a result or its ctx is done, whatever
	// the cluster's own shard-queue mode.
	Window int
	// Session names the stream's resumable session: each event's client
	// seq is its SessionSeq, and an applied one is answered as a dup.
	Session string
}

// StreamResult is one event's typed outcome, delivered in submission
// order on a stream and positionally by ApplyBatch (as EventResult).
// Exactly the field matching Type (and, for catalog-managed events,
// Catalog) is populated. Err carries a per-event failure — unknown
// tenant, unknown catalog stream, a failed re-solve, ErrNotDurable, or
// a transport sentinel from the shard enqueue — without ending the
// stream; match it with errors.Is against the serving taxonomy. When
// the worker applied the event, its payload is filled alongside Err; a
// failure before the shard queue leaves the payload zero.
type StreamResult struct {
	// Seq is the event's submission index on this stream (0-based; 0 in
	// a batch), or its client seq on a session stream.
	Seq int
	// Type echoes the event's type.
	Type EventType
	// CatalogID echoes the fleet identity of a catalog-managed event.
	CatalogID catalog.ID
	// Offer / Depart / Churn / Resolve mirror the per-operation session
	// results (plain events).
	Offer   OfferResult
	Depart  DepartResult
	Churn   ChurnResult
	Resolve ResolveResult
	// Catalog is the typed outcome of a catalog-managed offer or
	// departure (CatalogID non-empty), mirroring OfferCatalogStream /
	// DepartCatalogStream.
	Catalog CatalogResult
	// Err is the per-event error; the stream itself stays usable.
	Err error
	// Dup marks a session stream's answer to an already applied seq.
	Dup bool
}

// streamPending is one single event's caller-side context and its
// delivery slot: an entry of a stream's in-flight window (in submission
// order), or a session call's pooled entry. The worker — or, under
// group commit, the committer — delivers the event's result by writing
// res and then sending the entry itself on done, exactly once: done is
// the connection's completion channel for a stream entry, and the
// entry's own one-slot channel for a session call. Submit delivers the
// same way when the event failed before enqueueing. ApplyBatch gives
// each of its events one, all sharing one completion channel with room
// for the whole batch.
type streamPending struct {
	seq int
	typ EventType
	id  catalog.ID
	// catalog offer context captured at submit time (acquire protocol);
	// zero unless the offer reached its shard queue.
	tk       catalog.Ticket
	fullCost float64
	res      result
	done     chan *streamPending
	// ready marks a stream entry whose completion Recv has consumed,
	// and dup an already applied session seq; next links the
	// connection's free list.
	ready, dup bool
	next       *streamPending
}

// StreamConn is a persistent, pipelined ingestion session (serving API
// v4). One goroutine calls Submit (and finally CloseSend); another
// calls Recv until io.EOF — each side is independently serialized, so
// exactly one submitter and one receiver may run concurrently. Results
// arrive in submission order.
type StreamConn struct {
	c *Cluster

	sendMu     sync.Mutex
	sendClosed bool
	seq        int
	pending    chan *streamPending
	// A session stream's session, its applied set at open, last seq.
	sess    *session
	applied appliedSet
	last    uint64
	release sync.Once // lets the session go, at Close
	// chunk is the uncarved rest of the newest entry chunk and carved
	// counts the entries carved so far. Each chunk is as large as all
	// before it, up to 1,024 entries (about 280 KiB) and to the most a
	// connection can hold at once (a full window, the popped head, and
	// the one a blocked Submit holds), so entries never move and a
	// connection pays only for the depth it reaches.
	chunk  []streamPending
	carved int

	// acks is the connection's completion channel. Its capacity,
	// Window+1, covers every entry that can be in flight at once (a full
	// window plus the popped head), so a delivery never blocks a shard
	// worker or committer on a slow reader.
	acks chan *streamPending

	// free lists the settled entries Recv hands back to Submit, so the
	// stream hot path allocates nothing per event once warm. Entries
	// abandoned by Close are simply not recycled.
	freeMu sync.Mutex
	free   *streamPending

	recvMu sync.Mutex
	// head is the oldest in-flight event, popped from pending but not
	// yet settled — the one-slot peek TryRecv needs to check "is the
	// next result ready?" without consuming it.
	head *streamPending
}

// OpenStream opens a streaming ingestion session over the cluster. The
// connection stays valid until CloseSend (graceful: Recv drains the
// remaining results, then reports io.EOF) or until the cluster closes.
// A session stream waits while another stream holds its session.
func (c *Cluster) OpenStream(opts StreamOptions) (*StreamConn, error) {
	if opts.Window <= 0 {
		opts.Window = 64
	}
	sc := &StreamConn{
		c:       c,
		pending: make(chan *streamPending, opts.Window),
		acks:    make(chan *streamPending, opts.Window+1),
	}
	if opts.Session != "" {
		// Claimed before c.mu, never under it: the holder may be parked
		// on c.mu in route behind a queued Reshard or Close, and must
		// reach its Close to let go.
		sc.sess = c.session(opts.Session)
		sc.sess.claim.Lock()
		sc.applied = sc.sess.applied
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		sc.Close()
		return nil, ErrClosed
	}
	return sc, nil
}

// Submit pipelines one event onto the stream: it reserves the next
// in-flight window slot (parking while the window is full), routes the event to its shard worker, and returns
// without waiting for the result — Recv delivers it, in submission
// order. ev is checked as every submitted event is (see normalize):
// Type must be a serving event type and CostScale is ignored (discounts
// are granted only by the catalog's acquire protocol). An arrival or
// departure carrying a CatalogID runs the catalog protocol exactly like
// OfferCatalogStream / DepartCatalogStream, with the shard worker
// settling the fleet reference in FIFO order.
//
// Submit fails only when no window slot could be reserved (ErrClosed
// after CloseSend, ErrCanceled) or a session seq is refused
// (ErrSessionSeq, see CheckSessionSeq); every other failure — unknown
// tenant or catalog stream, a full shard queue, a closed cluster — is
// delivered in-band as the event's StreamResult.Err, keeping the
// one-result-per-event contract. An already applied session seq takes
// its window slot but crosses no shard.
func (sc *StreamConn) Submit(ctx context.Context, ev Event) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	if sc.sendClosed {
		return ErrClosed
	}
	// An already-done context must not reserve a slot (mirrors
	// enqueueLocked): otherwise both cases below could be ready and the
	// event would be submitted ~half the time under ErrCanceled. It is
	// checked before an entry is taken, so a refused Submit costs none.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	seq, dup := sc.seq, false
	if sc.sess != nil {
		below, err := CheckSessionSeq(ev.SessionSeq, sc.applied.high+1, sc.last)
		if err != nil {
			return err
		}
		seq, dup, ev.session = int(ev.SessionSeq), below && sc.applied.has(ev.SessionSeq), sc.sess.id
	}
	p := sc.take()
	*p = streamPending{seq: seq, typ: ev.Type, id: ev.CatalogID, dup: dup, done: sc.acks}
	if done := ctx.Done(); done == nil {
		sc.pending <- p
	} else {
		select {
		case sc.pending <- p:
		case <-done:
			sc.put(p)
			return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		}
	}
	sc.seq, sc.last = sc.seq+1, ev.SessionSeq
	if dup {
		p.done <- p
	} else if err := sc.c.route(ctx, ev, p); err != nil {
		p.res = result{err: err}
		p.done <- p
	}
	return nil
}

// take returns a free entry: a recycled one, or the next one carved
// from the connection's chunks (called with sendMu held).
func (sc *StreamConn) take() *streamPending {
	sc.freeMu.Lock()
	p := sc.free
	if p != nil {
		sc.free = p.next
	}
	sc.freeMu.Unlock()
	if p != nil {
		return p
	}
	if len(sc.chunk) == 0 {
		sc.chunk = make([]streamPending, max(min(sc.carved, 1024, cap(sc.pending)+2-sc.carved), 1))
	}
	p, sc.chunk = &sc.chunk[0], sc.chunk[1:]
	sc.carved++
	return p
}

// put returns an entry to the free list.
func (sc *StreamConn) put(p *streamPending) {
	sc.freeMu.Lock()
	p.next, sc.free = sc.free, p
	sc.freeMu.Unlock()
}

// route is the one caller-side path of a single event — a streamed
// one, or a session call: it checks the event (normalize), runs the
// catalog protocol for a catalog-managed arrival (acquire) or departure
// (a lookup in the cluster's own binding table, see catalogIndex), and
// enqueues it with p attached for the result. It returns the error of
// an event that never reached its shard queue; once enqueued, the
// worker owns the event, its fleet reference included.
func (c *Cluster) route(ctx context.Context, ev Event, p *streamPending) error {
	if err := normalize(&ev); err != nil {
		return err
	}
	p.id = ev.CatalogID
	// The catalog protocol and the enqueue share one read-locked section:
	// Reshard replaces the shard workers and Close stops them under the
	// write lock (a stream's tenant may change shard between two events),
	// so an acquired reference is either enqueued on a live worker or
	// released. The lock is never held across a result wait.
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ev.CatalogID == "" {
		return c.enqueueLocked(ctx, ev.Tenant, message{ev: ev, ack: p})
	}
	if ev.Type == EventStreamDeparture {
		// The worker settles the reference (release on removal) in shard
		// FIFO order; a canceled caller has nothing to reconcile.
		local, err := c.catalogIndex(ev.Tenant, ev.CatalogID)
		if err != nil {
			return err
		}
		ev.Stream = local
		return c.enqueueLocked(ctx, ev.Tenant, message{ev: ev, ack: p})
	}
	reg, err := c.catalogFor(ev.Tenant)
	if err != nil {
		return err
	}
	// Acquire takes a provisional reference in every case — also when
	// the tenant already holds the stream — so a concurrent departure
	// cannot evict the origin while this admission is in flight. The
	// worker classifies the settlement (commit, recharge for a re-offer
	// under an existing reference, release on rejection) against its
	// own held-reference set at apply time; a re-offer of a stream the
	// tenant still carries is a rejection, exactly like OfferStream. A
	// rejected offer's released provisional reference can be the one
	// that drains an occupied origin (the last confirmed holder already
	// departed while this admission was in flight), so a rejection can
	// report Evicted.
	tk, err := reg.Acquire(ev.CatalogID, ev.Tenant)
	if err != nil {
		return wrapCatalogErr(err)
	}
	// The ticket context is written before the enqueue: the worker's ack
	// is what orders it before the receiver's assembleResult.
	p.tk, p.fullCost = tk, c.tenants[ev.Tenant].Instance().StreamCostSum(tk.Local)
	ev.Stream, ev.CostScale, ev.originPayer = tk.Local, tk.Scale, tk.OriginPayer
	if err := c.enqueueLocked(ctx, ev.Tenant, message{ev: ev, ack: p}); err != nil {
		// Never enqueued: the provisional reference is dropped (still
		// under the lock, so it reaches the registry that granted it;
		// once enqueued, the worker settles it — see applyArrival).
		reg.Release(ev.CatalogID, ev.Tenant, false, tk.OriginPayer)
		p.tk, p.fullCost = catalog.Ticket{}, 0
		return err
	}
	return nil
}

// Recv returns the next event's typed result, in submission order. It
// blocks until the event settles on its shard worker; after CloseSend
// it drains the remaining in-flight results and then reports io.EOF.
// Per-event failures arrive as StreamResult.Err with a nil Recv error.
// A Recv aborted by ctx loses nothing: the event it was waiting on
// stays at the head of the stream for the next Recv.
func (sc *StreamConn) Recv(ctx context.Context) (StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc.recvMu.Lock()
	defer sc.recvMu.Unlock()
	done := ctx.Done()
	if sc.head == nil {
		if done == nil {
			q, ok := <-sc.pending
			if !ok {
				return StreamResult{}, io.EOF
			}
			sc.head = q
		} else {
			select {
			case q, ok := <-sc.pending:
				if !ok {
					return StreamResult{}, io.EOF
				}
				sc.head = q
			case <-done:
				return StreamResult{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
			}
		}
	}
	// Completions arrive in shard order, not submission order: mark each
	// one ready until the head is.
	for !sc.head.ready {
		if done == nil {
			(<-sc.acks).ready = true
			continue
		}
		select {
		case p := <-sc.acks:
			p.ready = true
		case <-done:
			return StreamResult{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		}
	}
	return sc.settleHead(), nil
}

// poisonRecycled, when non-nil (set only by test builds), scribbles an
// entry right before it is recycled — a stream entry back to its free
// list, a session call's entry back to its pool — so any read of a
// recycled entry observes garbage deterministically, and shows up as a
// data race under -race when the reader is concurrent. Production
// builds leave it nil.
var poisonRecycled func(*streamPending)

// settleHead assembles the head's result and recycles the entry
// (called with recvMu held, once the head is ready). Ownership rule:
// the receiver — and only the receiver, only after consuming the
// entry's one completion — puts the entry back; entries abandoned by
// Close are left to the garbage collector, never recycled.
func (sc *StreamConn) settleHead() StreamResult {
	p := sc.head
	sc.head = nil
	out := assembleResult(p)
	if sc.sess != nil && !p.dup {
		sc.sess.applied.advance(uint64(p.seq))
	}
	if poisonRecycled != nil {
		poisonRecycled(p)
	}
	sc.put(p)
	return out
}

// TryRecv is the non-blocking Recv: it returns the next result only if
// it has already settled (ok true). ok false means no result is ready
// right now — including the drained-after-CloseSend state, which the
// next blocking Recv reports as io.EOF. Remote writers use it to
// coalesce flushes: drain everything that is ready, then flush once.
func (sc *StreamConn) TryRecv() (StreamResult, bool) {
	sc.recvMu.Lock()
	defer sc.recvMu.Unlock()
	if sc.head == nil {
		select {
		case q, ok := <-sc.pending:
			if !ok {
				return StreamResult{}, false
			}
			sc.head = q
		default:
			return StreamResult{}, false
		}
	}
	for !sc.head.ready {
		select {
		case p := <-sc.acks:
			p.ready = true
		default:
			return StreamResult{}, false
		}
	}
	return sc.settleHead(), true
}

// assembleResult builds the typed StreamResult of a settled event from
// its entry: the caller-side context and the worker's reply — the one result
// assembly behind streams, session calls and ApplyBatch. The payload is
// filled even when res.err is set (a failed re-solve, ErrNotDurable):
// the worker applied the event, and each wire encoder decides whether
// to render it next to the error.
func assembleResult(p *streamPending) StreamResult {
	res := &p.res
	out := StreamResult{Seq: p.seq, Type: p.typ, CatalogID: p.id, Err: res.err}
	switch {
	case p.dup:
		out.Dup = true
	case p.id != "" && p.typ == EventStreamArrival:
		out.Catalog = CatalogResult{
			Admitted:    res.offer.Accepted,
			Subscribers: res.offer.Subscribers,
			Utility:     res.offer.Utility,
			Refs:        res.refs,
			SharedWith:  p.tk.SharedWith,
			CostScale:   p.tk.Scale,
			FullCost:    p.fullCost,
			Evicted:     res.evicted,
		}
		if out.Catalog.Admitted {
			out.Catalog.CostCharged = p.tk.Scale * p.fullCost
		}
	case p.id != "" && p.typ == EventStreamDeparture:
		out.Catalog = CatalogResult{
			Removed:     res.depart.Removed,
			Subscribers: res.depart.Subscribers,
			Refs:        res.refs,
			Evicted:     res.evicted,
		}
	case p.typ == EventStreamArrival:
		out.Offer = res.offer
	case p.typ == EventStreamDeparture:
		out.Depart = res.depart
	case p.typ == EventUserLeave, p.typ == EventUserJoin:
		out.Churn = res.churn
	case p.typ == EventResolve:
		out.Resolve = res.resolve
	}
	return out
}

// CloseSend ends the submit side: subsequent Submits fail with
// ErrClosed, and once the in-flight results are drained Recv reports
// io.EOF. Idempotent.
func (sc *StreamConn) CloseSend() {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	if !sc.sendClosed {
		sc.sendClosed = true
		close(sc.pending)
	}
}

// Close abandons the stream: the submit side is closed and any unread
// results are discarded. Every in-flight event still applies and
// settles on its shard worker (catalog references included), so closing
// mid-stream leaks nothing. A session stream must be closed: Close
// receives its in-flight results before the next stream may claim the
// session. Safe to call at any time, from any goroutine, including
// after CloseSend.
func (sc *StreamConn) Close() error {
	sc.CloseSend()
	if sc.sess != nil {
		for {
			if _, err := sc.Recv(context.Background()); err != nil {
				break // io.EOF: every result is recorded
			}
		}
		sc.release.Do(sc.sess.claim.Unlock)
	}
	return nil
}
