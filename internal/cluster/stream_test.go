package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/generator"
	"repro/internal/wal"
)

// streamTestClusters builds n same-shaped fleets so the same schedule
// can be driven through different submission surfaces and compared.
func streamTestClusters(t *testing.T, n, tenants, shards int) []*Cluster {
	t.Helper()
	out := make([]*Cluster, n)
	for k := range out {
		cfgs := make([]TenantConfig, tenants)
		for i := range cfgs {
			in, err := generator.CableTV{
				Channels: 15, Gateways: 5, Seed: 910 + int64(i), EgressFraction: 0.3,
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
		}
		c, err := New(cfgs, Options{Shards: shards, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		out[k] = c
	}
	return out
}

// streamSchedule interleaves every tenant's mixed schedule round-robin,
// so shard queues see events from different tenants back to back.
func streamSchedule(tenants int) []Event {
	perTenant := make([][]Event, tenants)
	for ti := 0; ti < tenants; ti++ {
		evs := batchTestEvents()
		for i := range evs {
			evs[i].Tenant = ti
		}
		perTenant[ti] = evs
	}
	return interleaveTenants(perTenant)
}

// interleaveTenants merges per-tenant schedules round-robin across
// tenants — the interleaving RunWorkload submits.
func interleaveTenants(perTenant [][]Event) []Event {
	var all []Event
	for i := 0; ; i++ {
		any := false
		for ti := range perTenant {
			if i < len(perTenant[ti]) {
				all = append(all, perTenant[ti][i])
				any = true
			}
		}
		if !any {
			return all
		}
	}
}

// applySingle drives one event through the matching per-operation
// session method and wraps the outcome as a StreamResult for 1:1
// comparison with the streamed run.
func applySingle(t *testing.T, c *Cluster, seq int, ev Event) StreamResult {
	t.Helper()
	ctx := context.Background()
	out := StreamResult{Seq: seq, Type: ev.Type}
	var err error
	switch ev.Type {
	case EventStreamArrival:
		out.Offer, err = c.OfferStream(ctx, ev.Tenant, ev.Stream)
	case EventStreamDeparture:
		out.Depart, err = c.DepartStream(ctx, ev.Tenant, ev.Stream)
	case EventUserLeave:
		out.Churn, err = c.UserLeave(ctx, ev.Tenant, ev.User)
	case EventUserJoin:
		out.Churn, err = c.UserJoin(ctx, ev.Tenant, ev.User)
	case EventResolve:
		out.Resolve, err = c.Resolve(ctx, ev.Tenant, ResolveOptions{Install: ev.Install})
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamMatchesSingleAndBatch is the v4 parity acceptance check: a
// pipelined stream must produce per-event results and fleet snapshots
// bit-identical to the same schedule submitted as single session calls
// — including the shard stats, since an acked arrival is its own flush
// boundary on both paths — and per-tenant tables identical to the
// ApplyBatch path, at every shard count.
func TestStreamMatchesSingleAndBatch(t *testing.T) {
	const tenants = 3
	schedule := streamSchedule(tenants)
	for _, shards := range []int{1, 2, 4, 8} {
		cs := streamTestClusters(t, 3, tenants, shards)
		single, streamed, batched := cs[0], cs[1], cs[2]

		// Reference: single session calls in schedule order.
		want := make([]StreamResult, len(schedule))
		for i, ev := range schedule {
			want[i] = applySingle(t, single, i, ev)
		}

		// Streamed: one submitter pipelines the whole schedule; one
		// receiver collects results in submission order.
		sc, err := streamed.OpenStream(StreamOptions{Window: 16})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]StreamResult, 0, len(schedule))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := sc.Recv(context.Background())
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, res)
			}
		}()
		for _, ev := range schedule {
			if err := sc.Submit(context.Background(), ev); err != nil {
				t.Fatal(err)
			}
		}
		sc.CloseSend()
		wg.Wait()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d stream results, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("shards=%d seq %d: unexpected stream error %v", shards, i, got[i].Err)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("shards=%d seq %d: stream %+v vs single %+v", shards, i, got[i], want[i])
			}
		}

		// Batched: each tenant's schedule as one ApplyBatch call.
		for ti := 0; ti < tenants; ti++ {
			var evs []Event
			for _, ev := range schedule {
				if ev.Tenant == ti {
					evs = append(evs, ev)
				}
			}
			if _, err := batched.ApplyBatch(context.Background(), ti, evs); err != nil {
				t.Fatal(err)
			}
		}

		sfs, err := single.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		stfs, err := streamed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		bfs, err := batched.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stfs.Render(), sfs.Render(); got != want {
			t.Fatalf("shards=%d: streamed snapshot diverged from single posts:\n--- stream\n%s\n--- single\n%s",
				shards, got, want)
		}
		if got, want := bfs.RenderTenants(), sfs.RenderTenants(); got != want {
			t.Fatalf("shards=%d: batch tenant tables diverged:\n--- batch\n%s\n--- single\n%s",
				shards, got, want)
		}
	}
}

// TestStreamCatalogEventsMatchSessions drives catalog offers and
// departures over a stream one at a time (submit, then receive, so
// pricing sees exactly the serial reference counts) and pins the typed
// CatalogResult bit-identical to the OfferCatalogStream /
// DepartCatalogStream session calls over the same schedule.
func TestStreamCatalogEventsMatchSessions(t *testing.T) {
	const tenants, channels = 4, 12
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	sessions := catalogTestFleet(t, tenants, channels, 5, 930, 0.3, 2, model)
	streamed := catalogTestFleet(t, tenants, channels, 5, 930, 0.3, 2, model)
	steps := catalogScheduleFor(tenants, channels, 930)
	ctx := context.Background()

	sc, err := streamed.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
		var want CatalogResult
		typ := EventStreamArrival
		if st.depart {
			typ = EventStreamDeparture
			want, err = sessions.DepartCatalogStream(ctx, st.tenant, id)
		} else {
			want, err = sessions.OfferCatalogStream(ctx, st.tenant, id)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Submit(ctx, Event{Tenant: st.tenant, Type: typ, CatalogID: id}); err != nil {
			t.Fatal(err)
		}
		res, err := sc.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("step %d: stream error %v", i, res.Err)
		}
		if res.CatalogID != id || res.Seq != i {
			t.Fatalf("step %d: result header %+v", i, res)
		}
		if !reflect.DeepEqual(res.Catalog, want) {
			t.Fatalf("step %d: stream catalog result %+v vs session %+v", i, res.Catalog, want)
		}
	}
	sc.CloseSend()
	if _, err := sc.Recv(ctx); err != io.EOF {
		t.Fatalf("drained stream Recv = %v, want io.EOF", err)
	}

	ss, err := sessions.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := streamed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Render(), ss.Render(); got != want {
		t.Fatalf("catalog stream snapshot diverged:\n--- stream\n%s\n--- sessions\n%s", got, want)
	}
}

// TestStreamPipelinedCatalogSettlesOnAbandon pins the disconnect
// contract: a stream dropped with results unread leaks nothing — every
// enqueued catalog event settles on its shard worker, so after a
// barrier the fleet reference count equals the carried-stream count
// exactly, and draining ends at zero. Run under -race this also proves
// the settlement path is data-race free.
func TestStreamPipelinedCatalogSettlesOnAbandon(t *testing.T) {
	const tenants, channels = 4, 12
	c := catalogTestFleet(t, tenants, channels, 5, 940, 0.3, 4, catalog.SharedOrigin{ReplicationFraction: 0.25})
	sc, err := c.OpenStream(StreamOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A receiver drains just enough results for the submitter to keep
	// pipelining, then abandons the rest mid-flight — the disconnect
	// shape: the submitter's next Submit parks on the full window until
	// its context is canceled, exactly like an HTTP reader losing its
	// client.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer cancel()
		for i := 0; i < 20; i++ {
			if _, err := sc.Recv(context.Background()); err != nil {
				return
			}
		}
	}()
	steps := catalogScheduleFor(tenants, channels, 940)
	submitted := 0
	for _, st := range steps {
		typ := EventStreamArrival
		if st.depart {
			typ = EventStreamDeparture
		}
		id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
		if err := sc.Submit(ctx, Event{Tenant: st.tenant, Type: typ, CatalogID: id}); err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatal(err)
			}
			break
		}
		submitted++
	}
	sc.CloseSend()
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if submitted < 20 {
		t.Fatalf("only %d events submitted; the abandon path was not exercised", submitted)
	}

	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, e := range fs.Catalog.Entries {
		refs += e.Refs
	}
	carried := 0
	for _, ts := range fs.Tenants {
		carried += ts.ActiveStreams
	}
	if refs != carried {
		t.Fatalf("abandoned stream desynced the registry: %d refs, %d carried streams", refs, carried)
	}

	// Drain everything; no reference may survive.
	ctx = context.Background()
	for ti := 0; ti < tenants; ti++ {
		for s := 0; s < channels; s++ {
			if _, err := c.DepartCatalogStream(ctx, ti, catalog.ID(fmt.Sprintf("s-%03d", s))); err != nil {
				t.Fatal(err)
			}
		}
	}
	final, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range final.Catalog.Entries {
		if e.Refs != 0 {
			t.Fatalf("%s: %d refs leaked after drain", e.ID, e.Refs)
		}
	}
}

// TestStreamWindowBackpressure pins the window's backpressure: a full
// window parks the submitter until ctx cancellation.
func TestStreamWindowBackpressure(t *testing.T) {
	cs := streamTestClusters(t, 1, 2, 2)
	c := cs[0]

	blk, err := c.OpenStream(StreamOptions{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer blk.Close()
	if err := blk.Submit(context.Background(), Event{Tenant: 1, Type: EventStreamArrival, Stream: 0}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() {
		blocked <- blk.Submit(ctx, Event{Tenant: 1, Type: EventStreamArrival, Stream: 1})
	}()
	cancel()
	if err := <-blocked; !errors.Is(err, ErrCanceled) {
		t.Fatalf("blocked submit after cancel = %v, want ErrCanceled", err)
	}
}

// TestStreamPerEventErrors pins the in-band error contract: data-level
// failures (unknown tenant, unknown catalog stream, bad event type)
// surface as StreamResult.Err in submission order and the stream stays
// usable; submit-side failures after CloseSend fail with ErrClosed.
func TestStreamPerEventErrors(t *testing.T) {
	c := catalogTestFleet(t, 2, 5, 3, 950, 0.5, 1, nil)
	sc, err := c.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{Tenant: 9, Type: EventStreamArrival, Stream: 0},                // unknown tenant
		{Tenant: 0, Type: EventType(42), Stream: 0},                     // bad type
		{Tenant: 0, Type: EventStreamArrival, CatalogID: "nope"},        // unknown catalog id
		{Tenant: 0, Type: EventStreamDeparture, CatalogID: "nope"},      // unknown catalog id (depart)
		{Tenant: 0, Type: EventStreamArrival, Stream: 0},                // fine
		{Tenant: 0, Type: EventUserLeave, User: 1, CatalogID: "s-0001"}, // stray id on churn: ignored
	}
	for _, ev := range evs {
		if err := sc.Submit(context.Background(), ev); err != nil {
			t.Fatal(err)
		}
	}
	sc.CloseSend()
	if err := sc.Submit(context.Background(), evs[4]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after CloseSend = %v, want ErrClosed", err)
	}
	var got []StreamResult
	for {
		res, err := sc.Recv(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if len(got) != len(evs) {
		t.Fatalf("%d results, want %d", len(got), len(evs))
	}
	if !errors.Is(got[0].Err, ErrUnknownTenant) {
		t.Fatalf("seq 0 err = %v, want ErrUnknownTenant", got[0].Err)
	}
	if got[1].Err == nil {
		t.Fatal("seq 1: bad event type accepted")
	}
	if !errors.Is(got[2].Err, ErrUnknownCatalogStream) || !errors.Is(got[3].Err, ErrUnknownCatalogStream) {
		t.Fatalf("seq 2/3 err = %v / %v, want ErrUnknownCatalogStream", got[2].Err, got[3].Err)
	}
	if got[4].Err != nil || !got[4].Offer.Accepted {
		t.Fatalf("seq 4 = %+v, want clean admission", got[4])
	}
	if got[5].Err != nil || got[5].CatalogID != "" || !got[5].Churn.Changed {
		t.Fatalf("seq 5 = %+v, want plain churn with the stray catalog id dropped", got[5])
	}
}

// TestOpenStreamOnClosedCluster pins the open-time taxonomy.
func TestOpenStreamOnClosedCluster(t *testing.T) {
	cs := streamTestClusters(t, 1, 1, 1)
	c := cs[0]
	sc, err := c.OpenStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// In-band: the cluster closed under an open stream.
	if err := sc.Submit(context.Background(), Event{Tenant: 0, Type: EventStreamArrival}); err != nil {
		t.Fatal(err)
	}
	res, err := sc.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("submit on closed cluster: in-band err = %v, want ErrClosed", res.Err)
	}
	if _, err := c.OpenStream(StreamOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("OpenStream on closed cluster = %v, want ErrClosed", err)
	}
}

// TestStreamUnreadNeverBlocksShard pins the capacity rule of a
// stream's completion channel: a stream whose receiver reads nothing
// holds Window+1 routed events on one shard — a full window behind the
// popped head — and a session call to another tenant on that shard
// still completes, with and without group commit. A channel one slot
// short would park the shard worker (or its committer) on the last
// delivery, and every tenant of the shard behind it.
func TestStreamUnreadNeverBlocksShard(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=batch:%v", batch), func(t *testing.T) {
			const window = 4
			pol := &blockingPolicy{entered: make(chan struct{}, window+1), gate: make(chan struct{})}
			cfgs := tenantInstances(t, 2, 8, 3, 907)
			cfgs[0].Policy = pol
			opts := Options{Shards: 1}
			if batch {
				opts.WAL = &WALOptions{Dir: t.TempDir(), Sync: wal.SyncBatch}
			}
			// Not closed on failure: Close would wait for the parked shard.
			c, err := New(cfgs, opts)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := c.OpenStream(StreamOptions{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			submit := func(s int) {
				if err := sc.Submit(ctx, Event{Tenant: 0, Type: EventStreamArrival, Stream: s}); err != nil {
					t.Fatal(err)
				}
			}
			submit(0)
			<-pol.entered // the worker is parked inside event 0
			if res, ok := sc.TryRecv(); ok {
				t.Fatalf("result %+v ready while its worker is parked", res)
			}
			for s := 1; s <= window; s++ {
				submit(s)
			}
			close(pol.gate)
			if _, err := c.OfferStream(ctx, 1, 0); err != nil {
				t.Fatalf("session call behind an unread stream on its shard: %v", err)
			}
			for i := 0; i <= window; i++ {
				if res, err := sc.Recv(ctx); err != nil || res.Seq != i || res.Err != nil {
					t.Fatalf("result %d = %+v, %v", i, res, err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
