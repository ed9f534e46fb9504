package cluster

import (
	"context"
	"fmt"

	"repro/internal/catalog"
)

// EventResult is the typed outcome of one event inside an ApplyBatch
// call: the same StreamResult a stream or a session call assembles for
// the event, with Seq 0. A failed re-solve sets Err for its own slot
// without failing the batch.
type EventResult = StreamResult

// ApplyBatch applies a sequence of events for one tenant as a single
// shard message: the whole batch crosses the queue once, the worker
// applies it in order with one in-flight entry per event — the entry a
// single event takes on route — and one typed result per event comes
// back positionally. Each contiguous run of arrivals in the batch counts
// as one admission window in the shard stats. This is the remote
// caller's answer to RunWorkload's batching — N single session calls
// pay N queue crossings, one ApplyBatch pays one.
//
// Catalog events are first-class batch citizens: an arrival or
// departure carrying a CatalogID runs the catalog protocol exactly like
// OfferCatalogStream / DepartCatalogStream, and every result is built
// by the same assembleResult the single-event path uses. A batch
// differs from routing each event in three ways: the batch is one shard
// message, enqueued all or nothing; all of its catalog arrivals are
// priced in one registry call (catalog.Service.AcquireBatch) before the
// batch crosses the shard queue, so the pricing is a deterministic
// function of the pre-batch state — each acquisition sees the ones
// before it, exactly as if the events had been pipelined on a
// StreamConn; and the worker flushes the batch's settlements in one
// ordered SettleBatch call before any of its results goes out, as it
// does for every message. Because pricing happens at submission (as on
// a pipelined stream), a depart-then-re-offer of the same CatalogID
// *within one batch* is quoted against the pre-batch sharing state;
// split phases across batches when serial per-call pricing is wanted.
//
// Events are checked as route checks them (see normalize): the Tenant
// field is overridden by the call's tenant, CostScale is ignored (the
// scale comes from the catalog ticket), and CatalogID is honored on
// arrivals and departures and cleared on other event types. Catalog
// events require Options.Catalog and known bindings; violations fail
// the whole batch before any event applies. On a context error the
// batch may still be applied (it is already queued); only the results
// are lost, exactly like the single-event session methods.
func (c *Cluster) ApplyBatch(ctx context.Context, tenant int, events []Event) ([]EventResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The entries share one completion channel with room for every
	// delivery, so neither the worker nor the committer ever blocks on
	// it, even after the caller has given up waiting.
	batch := make([]Event, len(events))
	acks := make([]streamPending, len(events))
	done := make(chan *streamPending, len(events))
	for i, ev := range events {
		ev.Tenant = tenant
		if err := normalize(&ev); err != nil {
			return nil, fmt.Errorf("cluster: batch event %d: %w", i, err)
		}
		batch[i] = ev
		acks[i] = streamPending{typ: ev.Type, id: ev.CatalogID, done: done}
	}
	// An empty batch still enqueues, so it reports ErrClosed /
	// ErrCanceled / ErrUnknownTenant exactly like every other session
	// call instead of silently succeeding.
	if err := c.enqueueBatch(ctx, tenant, batch, acks); err != nil {
		return nil, err
	}
	for range acks {
		select {
		case <-done:
		case <-ctx.Done():
			// Once enqueued, the worker settles every reference itself.
			return nil, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		}
	}
	out := make([]EventResult, len(acks))
	for i := range acks {
		out[i] = assembleResult(&acks[i])
	}
	return out, nil
}

// enqueueBatch is route for a whole batch: it checks every catalog
// event (see catalogIndex), prices the catalog arrivals in one
// AcquireBatch — writing each ticket into its event and its entry — and
// enqueues the batch as one shard message. The checks, the pricing and
// the enqueue share one read-locked section, as in route.
func (c *Cluster) enqueueBatch(ctx context.Context, tenant int, batch []Event, acks []streamPending) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var ids []catalog.ID // the catalog arrivals' IDs, in batch order
	for i := range batch {
		ev := &batch[i]
		if ev.CatalogID == "" {
			continue
		}
		local, err := c.catalogIndex(tenant, ev.CatalogID)
		if err != nil {
			return fmt.Errorf("cluster: batch event %d: %w", i, err)
		}
		ev.Stream = local
		if ev.Type == EventStreamArrival {
			ids = append(ids, ev.CatalogID)
		}
	}
	var tickets []catalog.Ticket
	if len(ids) > 0 {
		// Every ticket takes a provisional reference the worker settles
		// in order.
		tickets = make([]catalog.Ticket, len(ids))
		if err := c.catalog.AcquireBatch(tenant, ids, tickets); err != nil {
			return fmt.Errorf("cluster: batch: %w", wrapCatalogErr(err))
		}
		in := c.tenants[tenant].Instance()
		k := 0
		for i := range batch {
			if ev := &batch[i]; ev.CatalogID != "" && ev.Type == EventStreamArrival {
				tk := tickets[k]
				k++
				ev.Stream, ev.CostScale, ev.originPayer = tk.Local, tk.Scale, tk.OriginPayer
				acks[i].tk, acks[i].fullCost = tk, in.StreamCostSum(tk.Local)
			}
		}
	}
	if err := c.enqueueLocked(ctx, tenant, message{batch: batch, acks: acks}); err != nil {
		// Never enqueued: drop every provisional reference the batch
		// acquired, in one call (still under the lock, so the releases
		// reach the registry that priced them).
		if len(tickets) > 0 {
			rel := make([]catalog.Settlement, len(tickets))
			for k, tk := range tickets {
				rel[k] = catalog.Settlement{Op: catalog.SettleReleasePending,
					ID: ids[k], Tenant: tenant, Origin: tk.OriginPayer}
			}
			_ = c.catalog.SettleBatch(rel, nil)
		}
		return err
	}
	return nil
}
