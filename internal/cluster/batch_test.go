package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/generator"
	"repro/internal/wal"
)

func batchTestClusters(t *testing.T) (single, batched *Cluster) {
	t.Helper()
	build := func() *Cluster {
		cfgs := make([]TenantConfig, 3)
		for i := range cfgs {
			in, err := generator.CableTV{
				Channels: 15, Gateways: 5, Seed: 610 + int64(i), EgressFraction: 0.3,
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
		}
		c, err := New(cfgs, Options{Shards: 2, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return build(), build()
}

// batchTestEvents is a mixed single-tenant schedule: arrival runs
// interrupted by departures and gateway churn, ending in a resolve.
func batchTestEvents() []Event {
	var evs []Event
	for s := 0; s < 10; s++ {
		evs = append(evs, Event{Type: EventStreamArrival, Stream: s})
	}
	evs = append(evs,
		Event{Type: EventStreamDeparture, Stream: 3},
		Event{Type: EventUserLeave, User: 1},
	)
	for s := 10; s < 15; s++ {
		evs = append(evs, Event{Type: EventStreamArrival, Stream: s})
	}
	evs = append(evs,
		Event{Type: EventUserJoin, User: 1},
		Event{Type: EventResolve},
	)
	return evs
}

// TestApplyBatchMatchesSingleCalls is the batching parity check: one
// ApplyBatch call must produce exactly the per-event results and final
// per-tenant state that the same schedule produces as N single session
// calls — while crossing the shard queue once and coalescing arrivals
// into full batch windows instead of N caller-flushed singletons.
func TestApplyBatchMatchesSingleCalls(t *testing.T) {
	singleC, batchC := batchTestClusters(t)
	ctx := context.Background()
	evs := batchTestEvents()

	for ti := 0; ti < singleC.NumTenants(); ti++ {
		var want []EventResult
		for _, ev := range evs {
			switch ev.Type {
			case EventStreamArrival:
				res, err := singleC.OfferStream(ctx, ti, ev.Stream)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Offer: res})
			case EventStreamDeparture:
				res, err := singleC.DepartStream(ctx, ti, ev.Stream)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Depart: res})
			case EventUserLeave:
				res, err := singleC.UserLeave(ctx, ti, ev.User)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Churn: res})
			case EventUserJoin:
				res, err := singleC.UserJoin(ctx, ti, ev.User)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Churn: res})
			case EventResolve:
				res, err := singleC.Resolve(ctx, ti, ResolveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Resolve: res})
			}
		}
		got, err := batchC.ApplyBatch(ctx, ti, evs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("tenant %d: %d results, want %d", ti, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("tenant %d event %d: batch %+v vs single %+v", ti, i, got[i], want[i])
			}
		}
	}

	sfs, err := singleC.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := batchC.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bfs.RenderTenants(), sfs.RenderTenants(); got != want {
		t.Fatalf("tenant tables diverge:\n--- batch\n%s\n--- single\n%s", got, want)
	}

	// The point of the endpoint: the batch path coalesces. Each single
	// acked arrival is its own flush boundary, so the single-call run
	// pays one batch window per arrival; the batch run coalesces each
	// contiguous arrival sequence into one window.
	singleBatches, batchBatches, batchMax := 0, 0, 0
	for _, st := range sfs.ShardStats {
		singleBatches += st.Batches
	}
	for _, st := range bfs.ShardStats {
		batchBatches += st.Batches
		if st.MaxBatch > batchMax {
			batchMax = st.MaxBatch
		}
	}
	if batchBatches >= singleBatches {
		t.Fatalf("batch run used %d windows, single run %d — no coalescing", batchBatches, singleBatches)
	}
	if batchMax < 10 {
		t.Fatalf("batch MaxBatch = %d, want the 10-arrival run coalesced", batchMax)
	}
}

// TestApplyBatchValidation pins the argument and sentinel behavior.
func TestApplyBatchValidation(t *testing.T) {
	c, _ := batchTestClusters(t)
	ctx := context.Background()

	if _, err := c.ApplyBatch(ctx, 99, batchTestEvents()); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	// A catalog event for an unknown tenant fails as the unknown tenant,
	// as a catalog session call does, on a fleet with a catalog and on
	// one without.
	withCatalog := catalogTestFleet(t, 2, 5, 3, 11, 0.5, 1, nil)
	for _, fleet := range []struct {
		name  string
		c     *Cluster
		wrong error
	}{{"catalog", withCatalog, ErrUnknownCatalogStream}, {"no catalog", c, ErrNoCatalog}} {
		for _, typ := range []EventType{EventStreamArrival, EventStreamDeparture} {
			_, err := fleet.c.ApplyBatch(ctx, 9, []Event{{Type: typ, CatalogID: "s-001"}})
			if !errors.Is(err, ErrUnknownTenant) || errors.Is(err, fleet.wrong) {
				t.Fatalf("%s fleet, catalog event type %d for tenant 9: %v; want only %v",
					fleet.name, typ, err, ErrUnknownTenant)
			}
		}
	}
	if _, err := c.ApplyBatch(ctx, 0, []Event{{Type: EventType(99)}}); err == nil {
		t.Fatal("unknown event type accepted")
	}
	out, err := c.ApplyBatch(ctx, 0, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	// The Tenant field of batch events is overridden by the call's
	// tenant: a stray value cannot cross tenants.
	res, err := c.ApplyBatch(ctx, 1, []Event{{Tenant: 0, Type: EventStreamArrival, Stream: 0}})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Tenants[0].StreamsOffered != 0 || fs.Tenants[1].StreamsOffered != 1 {
		t.Fatalf("batch tenant override failed: %+v (res %+v)", fs.Tenants, res)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.ApplyBatch(canceled, 0, batchTestEvents()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyBatch(ctx, 0, batchTestEvents()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: %v", err)
	}
	// An empty batch honors the taxonomy too — no silent success on a
	// closed cluster.
	if _, err := c.ApplyBatch(ctx, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed empty batch: %v", err)
	}
}

// TestApplyBatchCatalogMatchesSessions is the batched-catalog-admission
// acceptance check: catalog events submitted through ApplyBatch — one
// AcquireBatch round trip per batch, one SettleBatch flush per batch —
// must produce per-event CatalogResults and fleet snapshots
// bit-identical to the same schedule driven through the per-operation
// catalog sessions, at every shard count and under both cost models.
//
// The chunker starts a new batch whenever a CatalogID repeats within
// the current one: a batch prices all of its catalog arrivals against
// the pre-batch sharing state (the pipelined-acquire semantics), so
// same-ID depart-then-reoffer inside one batch would legitimately see
// different sharing state than the settled-one-by-one reference.
func TestApplyBatchCatalogMatchesSessions(t *testing.T) {
	const tenants, channels = 4, 12
	steps := catalogScheduleFor(tenants, channels, 930)
	ctx := context.Background()
	for _, model := range []catalog.CostModel{
		catalog.Isolated{},
		catalog.SharedOrigin{ReplicationFraction: 0.25},
	} {
		for _, shards := range []int{1, 2, 4, 8} {
			sessions := catalogTestFleet(t, tenants, channels, 5, 930, 0.3, shards, model)
			batched := catalogTestFleet(t, tenants, channels, 5, 930, 0.3, shards, model)

			// Chunk the schedule: batch boundaries at tenant changes and
			// at same-ID repeats within a batch.
			type chunk struct {
				tenant int
				evs    []Event
			}
			var chunks []chunk
			seen := map[catalog.ID]bool{}
			for _, st := range steps {
				id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
				typ := EventStreamArrival
				if st.depart {
					typ = EventStreamDeparture
				}
				if len(chunks) == 0 || chunks[len(chunks)-1].tenant != st.tenant || seen[id] {
					chunks = append(chunks, chunk{tenant: st.tenant})
					clear(seen)
				}
				seen[id] = true
				last := &chunks[len(chunks)-1]
				last.evs = append(last.evs, Event{Type: typ, CatalogID: id})
			}

			var want []CatalogResult
			for _, st := range steps {
				id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
				var res CatalogResult
				var err error
				if st.depart {
					res, err = sessions.DepartCatalogStream(ctx, st.tenant, id)
				} else {
					res, err = sessions.OfferCatalogStream(ctx, st.tenant, id)
				}
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, res)
			}

			var got []CatalogResult
			for _, ch := range chunks {
				out, err := batched.ApplyBatch(ctx, ch.tenant, ch.evs)
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range out {
					if res.Err != nil {
						t.Fatalf("batch event %d: %v", i, res.Err)
					}
					got = append(got, res.Catalog)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%d shards: %d batch results, want %d", model.Name(), shards, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s/%d shards: step %d: batch %+v vs session %+v",
						model.Name(), shards, i, got[i], want[i])
				}
			}

			sfs, err := sessions.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			bfs, err := batched.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Tenant tables and the catalog section must be bit-identical;
			// the shard stats legitimately differ (coalescing into fewer,
			// larger admission windows is the point of the batch path).
			if gotR, wantR := bfs.RenderTenants(), sfs.RenderTenants(); gotR != wantR {
				t.Fatalf("%s/%d shards: batched tenant tables diverged:\n--- batch\n%s\n--- sessions\n%s",
					model.Name(), shards, gotR, wantR)
			}
			if gotR, wantR := bfs.Catalog.Render(), sfs.Catalog.Render(); gotR != wantR {
				t.Fatalf("%s/%d shards: batched catalog state diverged:\n--- batch\n%s\n--- sessions\n%s",
					model.Name(), shards, gotR, wantR)
			}
		}
	}
}

// TestApplyBatchAbandonedNeverBlocksShard pins the batch's completion
// channel: a caller that gives up on a queued batch leaves every one of
// its deliveries unread, and neither the worker nor, under group
// commit, the committer may block on them.
func TestApplyBatchAbandonedNeverBlocksShard(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=batch:%v", durable), func(t *testing.T) {
			const events = 8
			pol := &blockingPolicy{entered: make(chan struct{}, events), gate: make(chan struct{})}
			cfgs := tenantInstances(t, 1, 12, 3, 611)
			cfgs[0].Policy = pol
			opts := Options{Shards: 1}
			if durable {
				opts.WAL = &WALOptions{Dir: t.TempDir(), Sync: wal.SyncBatch}
			}
			// Not closed on failure: Close would wait on the blocked shard.
			c, err := New(cfgs, opts)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]Event, events)
			for i := range batch {
				batch[i] = Event{Type: EventStreamArrival, Stream: i}
			}
			ctx, cancel := context.WithCancel(context.Background())
			abandoned := make(chan error, 1)
			go func() {
				_, err := c.ApplyBatch(ctx, 0, batch)
				abandoned <- err
			}()
			<-pol.entered // the worker is inside the batch's first arrival
			cancel()
			if err := <-abandoned; !errors.Is(err, ErrCanceled) {
				t.Fatalf("abandoned batch: %v, want ErrCanceled", err)
			}
			close(pol.gate)
			snap := make(chan *FleetSnapshot, 1)
			go func() {
				fs, err := c.Snapshot()
				if err != nil {
					t.Error(err)
				}
				snap <- fs
			}()
			select {
			case fs := <-snap:
				if fs != nil && fs.Offered != events {
					t.Fatalf("offered %d, want the whole abandoned batch of %d", fs.Offered, events)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the shard blocked delivering an abandoned batch")
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
