package cluster

// Allocation-budget regression tests for the pooled serving hot path.
// The v6 pooling work (recycled completion channels, recycled stream
// entries, scratch buffers in the allocator and guard) made the steady
// states below allocation-free; these tests pin that with
// testing.AllocsPerRun so a stray per-event allocation fails CI rather
// than silently eroding perfbench's allocs_per_event.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/generator"
)

func allocTestCluster(t *testing.T) *Cluster {
	t.Helper()
	in, err := generator.CableTV{Channels: 20, Gateways: 6, Seed: 401, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New([]TenantConfig{{Instance: in}}, Options{Shards: 1, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// admittedStream probes for a stream the tenant's policy admits (and
// departs it again so the caller starts from a clean slate).
func admittedStream(t *testing.T, c *Cluster) int {
	t.Helper()
	ctx := context.Background()
	for s := 0; s < 20; s++ {
		res, err := c.OfferStream(ctx, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			if _, err := c.DepartStream(ctx, 0, s); err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	t.Fatal("no admissible stream")
	return -1
}

// TestSessionSteadyStateAllocationFree pins the pooled session path
// (the ClusterAck benchmark's hot path): once warm, an offer that the
// tenant rejects (already carried) and a departure of a stream it does
// not carry cross the shard queue, settle, and reply without a single
// allocation — the completion channel comes from the pool and goes
// back, and no result payload is built for a no-op.
func TestSessionSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	c := allocTestCluster(t)
	ctx := context.Background()
	s := admittedStream(t, c)
	if res, err := c.OfferStream(ctx, 0, s); err != nil || !res.Accepted {
		t.Fatalf("warmup offer = %+v, %v", res, err)
	}

	if avg := testing.AllocsPerRun(200, func() {
		if _, err := c.OfferStream(ctx, 0, s); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("rejected re-offer allocates %.2f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := c.DepartStream(ctx, 0, 19); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("no-op departure allocates %.2f per op, want 0", avg)
	}
}

// TestSessionOfferDepartCycleAllocBudget pins the full admit/release
// cycle at zero allocations: the one list that outlives the call, the
// tenant's retained subscriber list, is carved from the tenant's
// shared arrays (buf.Lists).
func TestSessionOfferDepartCycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	c := allocTestCluster(t)
	ctx := context.Background()
	// admittedStream warms one full cycle, growing every slice to its
	// steady capacity.
	s := admittedStream(t, c)
	avg := testing.AllocsPerRun(200, func() {
		if res, err := c.OfferStream(ctx, 0, s); err != nil || !res.Accepted {
			t.Fatalf("offer = %+v, %v", res, err)
		}
		if res, err := c.DepartStream(ctx, 0, s); err != nil || !res.Removed {
			t.Fatalf("depart = %+v, %v", res, err)
		}
	})
	if avg != 0 {
		t.Fatalf("offer+depart cycle allocates %.2f per cycle, want 0", avg)
	}
}

// TestStreamSteadyStateAllocationFree pins the pooled pipelined path
// (the StreamIngest benchmark's cluster-side hot path): a warm
// StreamConn recycles its pending entries and ack channels, so a
// submit+recv of a rejected offer allocates nothing at all.
func TestStreamSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	c := allocTestCluster(t)
	ctx := context.Background()
	s := admittedStream(t, c)
	if res, err := c.OfferStream(ctx, 0, s); err != nil || !res.Accepted {
		t.Fatalf("warmup offer = %+v, %v", res, err)
	}
	sc, err := c.OpenStream(StreamOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Warm: cycle the window once so the free list is populated (the
	// offers are rejections — the tenant already carries s).
	for i := 0; i < 8; i++ {
		if err := sc.Submit(ctx, Event{Tenant: 0, Type: EventStreamArrival, Stream: s}); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := sc.Submit(ctx, Event{Tenant: 0, Type: EventStreamArrival, Stream: s}); err != nil {
			t.Fatal(err)
		}
		if res, err := sc.Recv(ctx); err != nil || res.Err != nil {
			t.Fatalf("recv = %+v, %v", res, err)
		}
	}); avg != 0 {
		t.Fatalf("warm stream submit+recv allocates %.2f per op, want 0", avg)
	}
}

// TestStreamCatalogCycleAllocationFree pins a warm stream's catalog
// offer and departure of one ID under SharedOrigin, with a second
// tenant holding it, over an in-process registry: the admission's
// ticket, its SharedWith list, the admitted subscriber list and the
// settlements allocate nothing per event.
func TestStreamCatalogCycleAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	c := catalogTestFleet(t, 2, 20, 6, 401, 0.25, 2, catalog.SharedOrigin{ReplicationFraction: 0.25})
	ctx := context.Background()
	id := sharedCatalogStream(t, c)
	sc, err := c.OpenStream(StreamOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	cycle := func() {
		if err := sc.Submit(ctx, Event{Tenant: 0, Type: EventStreamArrival, CatalogID: id}); err != nil {
			t.Fatal(err)
		}
		res, err := sc.Recv(ctx)
		if err != nil || res.Err != nil || !res.Catalog.Admitted || len(res.Catalog.SharedWith) != 1 {
			t.Fatalf("catalog offer = %+v, %v", res, err)
		}
		if err := sc.Submit(ctx, Event{Tenant: 0, Type: EventStreamDeparture, CatalogID: id}); err != nil {
			t.Fatal(err)
		}
		if res, err := sc.Recv(ctx); err != nil || res.Err != nil || !res.Catalog.Removed {
			t.Fatalf("catalog depart = %+v, %v", res, err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("warm catalog offer+depart allocates %.2f per cycle, want 0", avg)
	}
}

// sharedCatalogStream finds a catalog stream both tenants of c admit,
// leaves tenant 1 holding it and tenant 0 not, and returns its ID.
func sharedCatalogStream(t *testing.T, c *Cluster) catalog.ID {
	t.Helper()
	ctx := context.Background()
	for s := 0; s < 20; s++ {
		id := catalog.ID(fmt.Sprintf("s-%03d", s))
		one, err := c.OfferCatalogStream(ctx, 1, id)
		if err != nil {
			t.Fatal(err)
		}
		if !one.Admitted {
			continue
		}
		zero, err := c.OfferCatalogStream(ctx, 0, id)
		if err != nil {
			t.Fatal(err)
		}
		if zero.Admitted {
			if _, err := c.DepartCatalogStream(ctx, 0, id); err != nil {
				t.Fatal(err)
			}
			return id
		}
		if _, err := c.DepartCatalogStream(ctx, 1, id); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no catalog stream both tenants admit")
	return ""
}

// TestStreamRejectAllocations pins that a Submit the window refuses
// takes no in-flight entry: a Submit under an already-canceled context
// allocates exactly what its error does, and a thousand of them carve
// no entry.
func TestStreamRejectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	c := allocTestCluster(t)
	ev := Event{Tenant: 0, Type: EventStreamDeparture, Stream: 19}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	t.Run("canceled", func(t *testing.T) {
		sc, err := c.OpenStream(StreamOptions{Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		refuse := func() {
			if err := sc.Submit(canceled, ev); !errors.Is(err, ErrCanceled) {
				t.Fatalf("submit = %v, want ErrCanceled", err)
			}
		}
		want := testing.AllocsPerRun(100, func() { _ = fmt.Errorf("%w: %w", ErrCanceled, canceled.Err()) })
		if got := testing.AllocsPerRun(100, refuse); got != want {
			t.Fatalf("refused submit allocates %.2f per call, its error alone %.2f", got, want)
		}
		carved := sc.carved
		for i := 0; i < 1000; i++ {
			refuse()
		}
		if sc.carved != carved {
			t.Fatalf("1000 refused submits carved %d entries, want 0", sc.carved-carved)
		}
	})
}

// TestStreamWarmupAllocations pins how a stream's in-flight entries
// grow: in chunks, each as large as all before it, so a fresh
// 16,384-deep window driven once to full depth allocates a few dozen
// times in all instead of once or more per entry.
func TestStreamWarmupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	c := allocTestCluster(t)
	ctx := context.Background()
	const window = 16384
	ev := Event{Tenant: 0, Type: EventStreamDeparture, Stream: 19}
	avg := testing.AllocsPerRun(1, func() {
		sc, err := c.OpenStream(StreamOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < window; i++ {
			if err := sc.Submit(ctx, ev); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < window; i++ {
			if res, err := sc.Recv(ctx); err != nil || res.Err != nil || res.Seq != i {
				t.Fatalf("recv %d = %+v, %v", i, res, err)
			}
		}
		sc.Close()
	})
	t.Logf("a %d-deep window driven to full depth allocates %.0f times", window, avg)
	if avg > 64 {
		t.Fatalf("a %d-deep window driven to full depth allocates %.0f times, want at most 64", window, avg)
	}
}

// TestStreamChurnResolveCycleAllocationFree counts churn-resolve's
// shape exactly: on a warm stream over one 120 × 40 tenant, a gateway
// leaves and rejoins, a stream departs and is offered again, and an
// installing re-solve follows, and 1,000 such cycles may allocate at
// most 64 times in all. The re-solve solves its bands on the shard
// worker, and the install and the leave write the lists they change
// into the tenant's own storage. What the cycle still carves from the
// tenant's shared 256-int arrays are the lists steps hand out: the
// leave's returned list, the departure's list and the re-offer's
// admission list, about one array every 30 cycles.
func TestStreamChurnResolveCycleAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	in, err := generator.CableTV{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New([]TenantConfig{{Instance: in}}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc, err := c.OpenStream(StreamOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx := context.Background()
	apply := func(ev Event) StreamResult {
		if err := sc.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
		res, err := sc.Recv(ctx)
		if err != nil || res.Err != nil {
			t.Fatalf("%v: %+v, %v", ev.Type, res, err)
		}
		return res
	}
	for s := 0; s < in.NumStreams(); s++ {
		apply(Event{Type: EventStreamArrival, Stream: s})
	}
	apply(Event{Type: EventResolve, Install: true})
	// The first gateway that holds a stream after the install, and the
	// first stream it holds. A rejoin recovers no subscription, so a
	// second install gives the probed gateways theirs back.
	u, s := -1, -1
	for g := 0; g < in.NumUsers() && u < 0; g++ {
		if res := apply(Event{Type: EventUserLeave, User: g}); len(res.Churn.Streams) > 0 {
			u, s = g, res.Churn.Streams[0]
		}
		apply(Event{Type: EventUserJoin, User: g})
	}
	if u < 0 {
		t.Fatal("no gateway holds a stream after the install")
	}
	apply(Event{Type: EventResolve, Install: true})
	cycle := func() {
		if res := apply(Event{Type: EventUserLeave, User: u}); len(res.Churn.Streams) == 0 {
			t.Fatalf("gateway %d left holding nothing", u)
		}
		apply(Event{Type: EventUserJoin, User: u})
		apply(Event{Type: EventStreamDeparture, Stream: s})
		apply(Event{Type: EventStreamArrival, Stream: s})
		if res := apply(Event{Type: EventResolve, Install: true}); !res.Resolve.Installed {
			t.Fatalf("re-solve did not install: %+v", res.Resolve)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	const cycles = 1000
	n := cycleMallocs(cycles, cycle)
	t.Logf("%d warm churn and installing re-solve cycles allocate %d times", cycles, n)
	if n > 64 {
		t.Fatalf("%d warm churn and installing re-solve cycles allocate %d times, want at most 64", cycles, n)
	}
}

// cycleMallocs runs cycle runs times on one processor and returns how
// many heap allocations the runs made in all. testing.AllocsPerRun
// divides that total by the runs as integers, so it would read 0 for
// anything up to runs−1.
func cycleMallocs(runs int, cycle func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}
