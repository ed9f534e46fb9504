package cluster

import (
	"context"
	"errors"
	"fmt"
)

// Serving API v2: the typed, context-aware request/response surface.
//
// Each per-operation method — the five below and the two catalog calls
// in catalog.go — is a one-line projection of Apply: the event takes the
// stream's own caller-side path (route, see stream.go) with a pooled
// in-flight entry attached, the caller blocks until the shard worker
// has applied it, and the reply is assembled by the stream's
// assembleResult. A session call is therefore a one-event stream by
// construction, not by a parity test. The sentinel
// errors below form the error taxonomy; every failure returned by the
// session methods matches exactly one of them under errors.Is (solver
// failures during a resolve are the exception — they are returned
// verbatim, wrapped with the tenant index).
//
// Backpressure is configurable per cluster (Options.Backpressure):
// BackpressureBlock parks the caller until the shard queue has room or
// ctx is done; BackpressureReject fails fast with ErrQueueFull.

// Sentinel errors returned by the serving API. Match with errors.Is;
// returned errors may wrap additional detail (tenant index, ctx cause).
var (
	// ErrUnknownTenant reports a tenant index outside [0, NumTenants).
	ErrUnknownTenant = errors.New("cluster: unknown tenant")
	// ErrQueueFull reports a full shard queue under BackpressureReject.
	ErrQueueFull = errors.New("cluster: shard queue full")
	// ErrClosed reports an operation on a closed cluster.
	ErrClosed = errors.New("cluster: closed")
	// ErrCanceled reports a context canceled or expired while enqueuing
	// or waiting for a result. It wraps ctx.Err(), so errors.Is also
	// matches context.Canceled / context.DeadlineExceeded.
	ErrCanceled = errors.New("cluster: canceled")
	// ErrNotDurable reports that an event was applied but its group
	// commit failed: the log record backing the result never reached
	// the disk, so the acknowledgement would have been a lie. Under
	// SyncBatch every result in the failed group (and every later one
	// — the appender error is latched) carries this error; after a
	// restart, recovery resumes from the last durable watermark and
	// the event may or may not survive. Callers treat it like a crash:
	// re-submit after recovery and let seq-level dedup sort it out.
	ErrNotDurable = errors.New("cluster: event not durable")
)

// Backpressure selects what happens when a shard queue is full.
type Backpressure int

const (
	// BackpressureBlock (the default) blocks the caller until the shard
	// queue has room or its context is done.
	BackpressureBlock Backpressure = iota
	// BackpressureReject fails fast with ErrQueueFull.
	BackpressureReject
)

// OfferResult is the outcome of offering a stream to a tenant.
type OfferResult struct {
	// Accepted reports whether at least one user now receives the
	// stream. Offers of out-of-range or already-carried streams are
	// rejections, not errors.
	Accepted bool
	// Subscribers are the users that now receive the stream, in the
	// order the policy admitted them.
	Subscribers []int
	// Utility is the utility added by this admission.
	Utility float64
}

// DepartResult is the outcome of departing a stream.
type DepartResult struct {
	// Removed reports whether the stream was actually carried.
	Removed bool
	// Subscribers are the users that were receiving the stream.
	Subscribers []int
}

// ChurnResult is the outcome of a gateway leave or join.
type ChurnResult struct {
	// Changed reports whether the event changed the gateway's state
	// (false for leave-while-away, join-while-online, out of range).
	Changed bool
	// Streams are the subscriptions torn down by a leave, in increasing
	// index order (empty for joins — a rejoining gateway does not
	// recover old subscriptions).
	Streams []int
}

// ResolveResult is the outcome of an offline re-solve.
type ResolveResult struct {
	// Installed reports whether the offline assignment replaced the
	// running one (requires ResolveOptions.Install and an offline value
	// at least as good as the online one).
	Installed bool
	// OnlineValue is the running assignment's utility at resolve time;
	// OfflineValue is the fresh offline pipeline's value.
	OnlineValue, OfflineValue float64
}

// ResolveOptions configures Cluster.Resolve.
type ResolveOptions struct {
	// Install replaces the tenant's running assignment and policy state
	// with the offline solution (make-before-break) when the offline
	// value is at least the online one; false is monitoring only.
	Install bool
}

// OfferStream offers stream s to tenant t's admission policy and
// returns the typed decision. A rejection (out-of-range or
// already-carried stream, or a policy "no") is a successful call with
// Accepted false.
func (c *Cluster) OfferStream(ctx context.Context, tenant, stream int) (OfferResult, error) {
	res, err := c.Apply(ctx, Event{Tenant: tenant, Type: EventStreamArrival, Stream: stream})
	return res.Offer, err
}

// DepartStream removes a carried stream from tenant t, releasing its
// subscribers and (for departure-aware policies) the policy's
// resources.
func (c *Cluster) DepartStream(ctx context.Context, tenant, stream int) (DepartResult, error) {
	res, err := c.Apply(ctx, Event{Tenant: tenant, Type: EventStreamDeparture, Stream: stream})
	return res.Depart, err
}

// UserLeave takes gateway u of tenant t offline, tearing down its
// subscriptions.
func (c *Cluster) UserLeave(ctx context.Context, tenant, user int) (ChurnResult, error) {
	res, err := c.Apply(ctx, Event{Tenant: tenant, Type: EventUserLeave, User: user})
	return res.Churn, err
}

// UserJoin brings gateway u of tenant t back online.
func (c *Cluster) UserJoin(ctx context.Context, tenant, user int) (ChurnResult, error) {
	res, err := c.Apply(ctx, Event{Tenant: tenant, Type: EventUserJoin, User: user})
	return res.Churn, err
}

// Resolve re-runs the offline Theorem 1.1 pipeline for tenant t on its
// shard worker. With opts.Install the offline assignment is installed
// via a make-before-break policy-state rebuild (never downgrading the
// running lineup); without it the re-solve only measures drift. When a
// catalog is configured, the worker releases the fleet references of
// catalog streams the installed lineup dropped before replying.
func (c *Cluster) Resolve(ctx context.Context, tenant int, opts ResolveOptions) (ResolveResult, error) {
	res, err := c.Apply(ctx, Event{Tenant: tenant, Type: EventResolve, Install: opts.Install})
	return res.Resolve, err
}

// result is the union payload a worker writes into an event's in-flight
// entry; exactly the field for the event's type is populated. refs
// and evicted report the fleet-reference state the worker settled for a
// catalog-managed event (Event.CatalogID set).
type result struct {
	offer   OfferResult
	depart  DepartResult
	churn   ChurnResult
	resolve ResolveResult
	refs    int
	evicted bool
	err     error
}

// Apply applies one event and returns its typed result, with the
// result's Err as the error: the one request path behind every session
// method, for a caller that holds a routed event (a wire front end, a
// replayed schedule). ev is checked as a streamed event is (see
// Submit): an arrival or departure carrying a CatalogID runs the catalog
// protocol exactly like OfferCatalogStream / DepartCatalogStream, and
// one without is a plain local-index event.
//
// Apply routes the event with a pooled in-flight entry, which carries
// its own one-slot completion channel, waits for the worker's reply,
// and assembles it with the stream's assembleResult. The worker applies
// the event the moment it dequeues it and delivers the result right
// after (under group commit, once it is durable), so a blocked caller
// never waits on later traffic.
//
// The entry is recycled after its completion was consumed (or when the
// event never enqueued), and deliberately left to the garbage collector
// when the caller abandons the wait on context cancellation — the
// worker may still deliver into it, and a recycled entry must never
// have a delivery in flight. Once enqueued, the worker settles any
// fleet reference itself, so a canceled caller has nothing to
// reconcile.
func (c *Cluster) Apply(ctx context.Context, ev Event) (StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, _ := c.callPool.Get().(*streamPending)
	if p == nil {
		p = &streamPending{done: make(chan *streamPending, 1)}
	}
	*p = streamPending{typ: ev.Type, id: ev.CatalogID, done: p.done}
	var out StreamResult
	if err := c.route(ctx, ev, p); err != nil {
		out = StreamResult{Type: p.typ, CatalogID: p.id, Err: err}
	} else {
		select {
		case <-p.done:
			out = assembleResult(p)
		case <-ctx.Done():
			err := fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
			return StreamResult{Type: p.typ, CatalogID: p.id, Err: err}, err
		}
	}
	if poisonRecycled != nil {
		poisonRecycled(p)
	}
	c.callPool.Put(p)
	return out, out.Err
}

// normalize is the one check route and ApplyBatch make of a submitted
// event: its type must be a serving event type, and what a caller may
// not supply is cleared — the pricing (discounts and fleet references
// are granted only by the catalog's own acquire protocol, never by a
// caller-supplied event), a CatalogID on a type with no catalog form,
// and a session seq outside a session stream.
func normalize(ev *Event) error {
	switch ev.Type {
	case EventStreamArrival, EventStreamDeparture:
	case EventUserLeave, EventUserJoin, EventResolve:
		ev.CatalogID = ""
	default:
		return fmt.Errorf("cluster: unknown event type %d", ev.Type)
	}
	ev.CostScale, ev.originPayer = 0, false
	if ev.session == "" {
		ev.SessionSeq = 0
	}
	return nil
}

// enqueueLocked is the single shard-channel send shared by route and
// ApplyBatch: it validates the tenant index and the open state, then
// delivers msg to the owning shard under the cluster's backpressure
// mode. It requires c.mu held (read or write): Reshard replaces shardOf
// and shards under the write lock, and Close closes the shard queues.
// The lock is never held across a result wait.
func (c *Cluster) enqueueLocked(ctx context.Context, tenant int, msg message) error {
	if tenant < 0 || tenant >= len(c.tenants) {
		return fmt.Errorf("%w: tenant %d out of range [0,%d)", ErrUnknownTenant, tenant, len(c.tenants))
	}
	// An already-done context must not enqueue: without this guard the
	// send and ctx.Done() cases below could both be ready and the event
	// would be applied ~half the time while the caller sees ErrCanceled.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	if c.closed {
		return ErrClosed
	}
	ch := c.shards[c.shardOf[tenant]].ch
	if c.opts.Backpressure == BackpressureReject {
		select {
		case ch <- msg:
			return nil
		default:
			return fmt.Errorf("%w: shard %d", ErrQueueFull, c.shardOf[tenant])
		}
	}
	// Fast path: a context that can never be canceled (Background and
	// friends) needs no select — a plain channel send is markedly
	// cheaper on the per-event hot path.
	done := ctx.Done()
	if done == nil {
		ch <- msg
		return nil
	}
	select {
	case ch <- msg:
		return nil
	case <-done:
		return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
}
