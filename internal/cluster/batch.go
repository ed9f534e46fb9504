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
// applies it in order inside one batch window (each contiguous run of
// arrivals is coalesced exactly as the fire-and-forget replay path
// coalesces), and one typed result per event comes back positionally.
// This is the remote caller's answer to RunWorkload's batching — N
// single session calls pay N queue crossings and N flush boundaries,
// one ApplyBatch pays one of each.
//
// Catalog events are first-class batch citizens: an arrival or
// departure carrying a CatalogID runs the catalog protocol exactly like
// OfferCatalogStream / DepartCatalogStream, and every result is built
// by the same assembleResult the single-event path uses. ApplyBatch
// keeps its own caller-side mechanics rather than routing each event
// (route), for three reasons: the batch is one shard message, applied
// all or nothing; all of its catalog arrivals are priced in one
// registry round trip (catalog.Registry.AcquireBatch) before the batch
// crosses the shard queue, so the pricing is a deterministic function
// of the pre-batch state — each acquisition sees the ones before it,
// exactly as if the events had been pipelined on a StreamConn; and the
// worker flushes the batch's settlements in one ordered SettleBatch
// round trip before acking, preserving worker-FIFO settlement order
// exactly. Because pricing happens at submission (as on a pipelined
// stream), a depart-then-re-offer of the same CatalogID *within one
// batch* is quoted against the pre-batch sharing state; split phases
// across batches when serial per-call pricing is wanted.
//
// The Tenant and CostScale fields of each event are overridden (tenant
// from the call; the scale from the catalog ticket, or cleared —
// discounts and fleet references are granted only by the catalog's own
// acquire protocol, never by a caller-supplied event); CatalogID is
// honored on arrivals and departures and cleared on other event types,
// following the StreamConn convention. Catalog events require
// Options.Catalog and known bindings; violations fail the whole batch
// before any event applies. On a context error the batch may still be
// applied (it is already queued); only the results are lost, exactly
// like the single-event session methods.
func (c *Cluster) ApplyBatch(ctx context.Context, tenant int, events []Event) ([]EventResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// An empty batch still flows through enqueue, so it reports
	// ErrClosed / ErrCanceled / ErrUnknownTenant exactly like every
	// other session call instead of silently succeeding.
	batch := make([]Event, len(events))
	var ids []catalog.ID // the catalog arrivals' IDs, in batch order
	for i, ev := range events {
		if err := validEventType(ev.Type); err != nil {
			return nil, fmt.Errorf("cluster: batch event %d: %w", i, err)
		}
		ev.Tenant = tenant
		ev.CostScale = 0
		ev.originPayer = false
		if ev.CatalogID != "" && ev.Type != EventStreamArrival && ev.Type != EventStreamDeparture {
			ev.CatalogID = ""
		}
		if ev.CatalogID != "" && ev.Type == EventStreamArrival {
			ids = append(ids, ev.CatalogID)
		}
		batch[i] = ev
	}
	// The catalog lookups, the pricing round trip, and the enqueue share
	// one read-locked section (Reshard replaces the shard workers under
	// the write lock); the lock drops before the result wait.
	ack := c.getBatchAck()
	fail := func(err error) ([]EventResult, error) {
		c.mu.RUnlock()
		c.putBatchAck(ack)
		return nil, err
	}
	c.mu.RLock()
	for i := range batch {
		if batch[i].CatalogID == "" {
			continue
		}
		if c.catalog == nil {
			return fail(fmt.Errorf("cluster: batch event %d: %w", i, ErrNoCatalog))
		}
		local, err := c.catalogBindings.Lookup(batch[i].CatalogID, tenant)
		if err != nil {
			return fail(fmt.Errorf("cluster: batch event %d: %w", i, wrapCatalogErr(err)))
		}
		batch[i].Stream = local
	}
	var tickets []catalog.Ticket
	if len(ids) > 0 {
		// One pricing round trip for the whole batch; every ticket takes
		// a provisional reference the worker will settle in order.
		tickets = make([]catalog.Ticket, len(ids))
		if err := c.catalog.AcquireBatch(tenant, ids, tickets); err != nil {
			return fail(fmt.Errorf("cluster: batch: %w", wrapCatalogErr(err)))
		}
		k := 0
		for i := range batch {
			if batch[i].CatalogID != "" && batch[i].Type == EventStreamArrival {
				batch[i].Stream = tickets[k].Local
				batch[i].CostScale = tickets[k].Scale
				batch[i].originPayer = tickets[k].OriginPayer
				k++
			}
		}
	}
	if err := c.enqueueLocked(ctx, tenant, message{batch: batch, batchAck: ack}); err != nil {
		// Never enqueued: drop every provisional reference the batch
		// acquired, in one round trip (still under the lock, so the
		// releases reach the registry that priced them).
		if len(tickets) > 0 {
			rel := make([]catalog.Settlement, len(tickets))
			for k, tk := range tickets {
				rel[k] = catalog.Settlement{Op: catalog.SettleReleasePending,
					ID: ids[k], Tenant: tenant, Origin: tk.OriginPayer}
			}
			_ = c.catalog.SettleBatch(rel, nil)
		}
		return fail(err)
	}
	in := c.tenants[tenant].Instance()
	c.mu.RUnlock()
	var res []result
	select {
	case res = <-ack:
		c.putBatchAck(ack)
	case <-ctx.Done():
		// Once enqueued, the worker settles every reference itself; an
		// abandoned ack is leaked to the garbage collector, never
		// recycled (the worker may still deliver into it).
		return nil, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
	// Assemble each result exactly as a single call would, from the
	// ticket context that lives caller-side (the worker backfilled
	// refs/evicted from its settlement flush).
	out := make([]EventResult, len(batch))
	k := 0
	for i, ev := range batch {
		p := streamPending{typ: ev.Type, id: ev.CatalogID, res: res[i]}
		if ev.CatalogID != "" && ev.Type == EventStreamArrival {
			p.tk, p.fullCost = tickets[k], in.StreamCostSum(tickets[k].Local)
			k++
		}
		out[i] = assembleResult(&p)
	}
	return out, nil
}
