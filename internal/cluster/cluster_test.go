package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/mmd"
)

func tenantInstances(t testing.TB, n int, channels, gateways int, seed int64) []TenantConfig {
	t.Helper()
	cfgs := make([]TenantConfig, n)
	for i := range cfgs {
		in, err := generator.CableTV{
			Channels: channels, Gateways: gateways, Seed: seed + int64(i),
			EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = TenantConfig{Instance: in}
	}
	return cfgs
}

func runFleet(t testing.TB, tenants []TenantConfig, opts Options, w Workload) *FleetSnapshot {
	t.Helper()
	c, err := New(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	fs, total, err := c.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("workload submitted no events")
	}
	return fs
}

func TestClusterAdmitsAndStaysFeasible(t *testing.T) {
	tenants := tenantInstances(t, 6, 20, 6, 400)
	fs := runFleet(t, tenants, Options{Shards: 3, BatchSize: 4}, Workload{Seed: 1})
	if !fs.AllFeasible {
		t.Fatal("fleet has an infeasible tenant")
	}
	if fs.Admitted == 0 || fs.Utility <= 0 {
		t.Fatalf("fleet admitted nothing: admitted=%d utility=%v", fs.Admitted, fs.Utility)
	}
	if fs.Offered != 6*20 {
		t.Fatalf("offered = %d, want %d", fs.Offered, 6*20)
	}
	events := 0
	for _, st := range fs.ShardStats {
		events += st.Events
	}
	if events != fs.Offered {
		t.Fatalf("shard events = %d, want %d", events, fs.Offered)
	}
}

// TestClusterDeterministicAcrossRuns is the acceptance check: a
// fixed-seed run renders a byte-identical aggregate report across two
// invocations.
func TestClusterDeterministicAcrossRuns(t *testing.T) {
	opts := Options{Shards: 4, BatchSize: 8, ResolveEvery: 7}
	w := Workload{Seed: 42, Rounds: 2, DepartEvery: 3, ChurnEvery: 5}
	a := runFleet(t, tenantInstances(t, 8, 15, 5, 500), opts, w).Render()
	b := runFleet(t, tenantInstances(t, 8, 15, 5, 500), opts, w).Render()
	if a != b {
		t.Fatalf("reports differ across identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestClusterShardCountInvariant checks the determinism contract's
// stronger half: per-tenant results do not depend on how tenants are
// sharded.
func TestClusterShardCountInvariant(t *testing.T) {
	w := Workload{Seed: 7, Rounds: 2, DepartEvery: 4, ChurnEvery: 6}
	var base string
	for _, shards := range []int{1, 2, 4, 7} {
		fs := runFleet(t, tenantInstances(t, 7, 12, 5, 600),
			Options{Shards: shards, BatchSize: 3}, w)
		got := fs.RenderTenants()
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("tenant table changed with %d shards:\n--- base\n%s\n--- got\n%s",
				shards, base, got)
		}
	}
}

func TestClusterBatchingCoalesces(t *testing.T) {
	tenants := tenantInstances(t, 4, 25, 5, 700)
	c, err := New(tenants, Options{Shards: 2, BatchSize: 8, QueueDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, _, err := c.RunWorkload(Workload{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range fs.ShardStats {
		if st.Batches == 0 || st.Arrivals == 0 {
			t.Fatalf("shard %d processed no batches: %+v", st.Shard, st)
		}
		if st.MaxBatch > 8 {
			t.Fatalf("shard %d batch overflow: max %d > 8", st.Shard, st.MaxBatch)
		}
		if st.MaxBatch < 2 {
			t.Fatalf("shard %d never coalesced (max batch %d); queue interleaving broken?",
				st.Shard, st.MaxBatch)
		}
	}
}

// TestAdmissionWindowBoundaries pins every place a shard's admission
// window closes, by the exact shard row one fixed sequence leaves on a
// one-shard fleet with BatchSize 4: the BatchSize-th fire-and-forget
// arrival, an arrival carrying a caller's entry (counted in its
// window), a non-arrival, a batch (before its first event; each arrival
// run inside it is one window, however long), and a barrier.
func TestAdmissionWindowBoundaries(t *testing.T) {
	c, err := New(tenantInstances(t, 2, 16, 5, 930), Options{Shards: 1, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	post := func(ev Event) {
		t.Helper()
		if err := c.post(ev); err != nil {
			t.Fatal(err)
		}
	}
	arrival := func(tenant, stream int) Event {
		return Event{Tenant: tenant, Type: EventStreamArrival, Stream: stream}
	}

	// Six fire-and-forget arrivals over two tenants: a full window of
	// four (windows 1), then two that the session offer joins and
	// closes (window 2, three arrivals).
	for s := 0; s < 6; s++ {
		post(arrival(s%2, s))
	}
	if _, err := c.OfferStream(ctx, 0, 6); err != nil {
		t.Fatal(err)
	}
	// An arrival that a departure closes (window 3), and one that the
	// batch closes (window 4).
	post(arrival(1, 7))
	post(Event{Tenant: 1, Type: EventStreamDeparture, Stream: 7})
	post(arrival(0, 8))
	// Runs of five and two arrivals around a leave: windows 5 and 6.
	batch := []Event{
		{Type: EventStreamArrival, Stream: 0},
		{Type: EventStreamArrival, Stream: 2},
		{Type: EventStreamArrival, Stream: 4},
		{Type: EventStreamArrival, Stream: 6},
		{Type: EventStreamArrival, Stream: 8},
		{Type: EventUserLeave, User: 0},
		{Type: EventStreamArrival, Stream: 9},
		{Type: EventStreamArrival, Stream: 11},
	}
	if _, err := c.ApplyBatch(ctx, 1, batch); err != nil {
		t.Fatal(err)
	}
	// Two arrivals that the barrier closes (window 7).
	post(arrival(0, 10))
	post(arrival(1, 12))
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := fs.ShardStats[0]
	got.Admitted = 0 // a policy figure, not a window one
	want := ShardStats{Shard: 0, Tenants: 2, Events: 20, Batches: 7, MaxBatch: 5,
		Arrivals: 18, Departures: 1, Leaves: 1}
	if got != want {
		t.Fatalf("shard row %+v, want %+v", got, want)
	}
}

func TestClusterChurnAndResolve(t *testing.T) {
	tenants := tenantInstances(t, 4, 12, 4, 800)
	fs := runFleet(t, tenants,
		Options{Shards: 4, ResolveEvery: 5},
		Workload{Seed: 11, Rounds: 3, DepartEvery: 2, ChurnEvery: 4})
	if fs.Departed == 0 || fs.Leaves == 0 || fs.Joins == 0 {
		t.Fatalf("churn did not run: %+v", fs)
	}
	if fs.Resolves == 0 {
		t.Fatal("churn-triggered re-solves did not run")
	}
	for i, ts := range fs.Tenants {
		if !ts.Feasible {
			t.Fatalf("tenant %d infeasible after churn", i)
		}
		if ts.Resolves > 0 && ts.LastResolveValue <= 0 {
			t.Fatalf("tenant %d resolve recorded no value", i)
		}
	}
}

// TestClusterSessionRoundTrip drives one tenant through every
// per-operation session method and checks the typed results.
func TestClusterSessionRoundTrip(t *testing.T) {
	ctx := context.Background()
	tenants := tenantInstances(t, 2, 8, 3, 900)
	c, err := New(tenants, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var admitted []int
	for s := 0; s < 8; s++ {
		res, err := c.OfferStream(ctx, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != (len(res.Subscribers) > 0) {
			t.Fatalf("offer %d: Accepted=%v but %d subscribers", s, res.Accepted, len(res.Subscribers))
		}
		if res.Accepted {
			admitted = append(admitted, s)
			if res.Utility <= 0 {
				t.Fatalf("offer %d accepted with utility %v", s, res.Utility)
			}
		}
	}
	if len(admitted) == 0 {
		t.Fatal("no stream admitted")
	}
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Tenants[0].StreamsAdmitted != len(admitted) {
		t.Fatalf("snapshot admitted = %d, want %d", fs.Tenants[0].StreamsAdmitted, len(admitted))
	}
	if fs.Tenants[1].StreamsOffered != 0 {
		t.Fatalf("tenant 1 saw tenant 0's events: %+v", fs.Tenants[1])
	}

	// Re-offering a carried stream is a rejection, not an error.
	if res, err := c.OfferStream(ctx, 0, admitted[0]); err != nil {
		t.Fatal(err)
	} else if res.Accepted {
		t.Fatalf("re-offer of carried stream %d accepted", admitted[0])
	}
	// Out-of-range streams are rejections too.
	if res, err := c.OfferStream(ctx, 0, 99); err != nil || res.Accepted {
		t.Fatalf("out-of-range offer = (%+v, %v)", res, err)
	}

	// Departing a carried stream releases its subscribers; a second
	// depart reports Removed=false without error.
	dep, err := c.DepartStream(ctx, 0, admitted[0])
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Removed || len(dep.Subscribers) == 0 {
		t.Fatalf("depart of carried stream: %+v", dep)
	}
	if dep, err = c.DepartStream(ctx, 0, admitted[0]); err != nil || dep.Removed {
		t.Fatalf("double depart = (%+v, %v)", dep, err)
	}

	// Gateway churn round trip: leave changes state once, join undoes it.
	if res, err := c.UserLeave(ctx, 0, 0); err != nil || !res.Changed {
		t.Fatalf("first leave = (%+v, %v)", res, err)
	}
	if res, err := c.UserLeave(ctx, 0, 0); err != nil || res.Changed {
		t.Fatalf("leave while away = (%+v, %v)", res, err)
	}
	if res, err := c.UserJoin(ctx, 0, 0); err != nil || !res.Changed {
		t.Fatalf("join = (%+v, %v)", res, err)
	}
	if res, err := c.UserJoin(ctx, 0, 0); err != nil || res.Changed {
		t.Fatalf("join while online = (%+v, %v)", res, err)
	}

	// Monitoring resolve reports both values and does not install.
	res, err := c.Resolve(ctx, 0, ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Installed || res.OfflineValue <= 0 {
		t.Fatalf("monitoring resolve = %+v", res)
	}
	fs, err = c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Tenants[0].Resolves != 1 || fs.Tenants[0].Installs != 0 {
		t.Fatalf("tenant 0 snapshot after monitoring resolve = %+v", fs.Tenants[0])
	}
}

// TestClusterResolveInstall pins the install path end to end: after a
// churny workload, Resolve with Install replaces the drifted online
// assignment with the offline solution — utility does not drop, the
// fleet stays feasible, and the install is counted.
func TestClusterResolveInstall(t *testing.T) {
	ctx := context.Background()
	tenants := tenantInstances(t, 3, 15, 5, 950)
	c, err := New(tenants, Options{Shards: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.RunWorkload(Workload{Seed: 13, Rounds: 2, DepartEvery: 3, ChurnEvery: 4}); err != nil {
		t.Fatal(err)
	}
	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	installs := 0
	for ti := 0; ti < c.NumTenants(); ti++ {
		res, err := c.Resolve(ctx, ti, ResolveOptions{Install: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Installed {
			installs++
			if res.OfflineValue < res.OnlineValue {
				t.Fatalf("tenant %d installed a worse lineup: %+v", ti, res)
			}
		}
	}
	if installs == 0 {
		t.Fatal("no tenant installed (offline never beat the drifted online state?)")
	}
	after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !after.AllFeasible {
		t.Fatal("install broke feasibility")
	}
	if after.Utility < before.Utility {
		t.Fatalf("post-install fleet utility %.3f < online %.3f", after.Utility, before.Utility)
	}
	if after.Installs != installs {
		t.Fatalf("fleet installs = %d, want %d", after.Installs, installs)
	}
	// The installed lineup keeps serving: another workload round must
	// stay feasible (policy state was rebuilt consistently).
	if _, _, err := c.RunWorkload(Workload{Seed: 14}); err != nil {
		t.Fatal(err)
	}
	final, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !final.AllFeasible {
		t.Fatal("fleet infeasible after serving on an installed lineup")
	}
}

// TestClusterSentinelErrors pins the error taxonomy: unknown tenants,
// operations after Close, and queue-full rejection all surface the
// sentinel errors under errors.Is.
func TestClusterSentinelErrors(t *testing.T) {
	ctx := context.Background()
	tenants := tenantInstances(t, 2, 8, 3, 900)
	c, err := New(tenants, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OfferStream(ctx, 5, 0); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("out-of-range tenant: err = %v, want ErrUnknownTenant", err)
	}
	if _, err := c.Resolve(ctx, -1, ResolveOptions{}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("negative tenant: err = %v, want ErrUnknownTenant", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.OfferStream(canceled, 0, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: err = %v, want ErrCanceled", err)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v must also match context.Canceled", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if _, err := c.OfferStream(ctx, 0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer after Close: err = %v, want ErrClosed", err)
	}
	if _, err := c.UserLeave(ctx, 0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("leave after Close: err = %v, want ErrClosed", err)
	}
	if _, err := c.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after Close: err = %v, want ErrClosed", err)
	}
}

// plainPolicy is a minimal custom policy without Reinstall support.
type plainPolicy struct{}

func (plainPolicy) Name() string                { return "test-plain" }
func (plainPolicy) OnStreamArrival(s int) []int { return nil }

// TestClusterResolveErrorDoesNotPoisonSnapshot pins that a failed
// caller-requested install (custom policy without Reinstall) is
// returned to that caller only: Snapshot and Close keep working.
func TestClusterResolveErrorDoesNotPoisonSnapshot(t *testing.T) {
	ctx := context.Background()
	in, err := generator.CableTV{Channels: 8, Gateways: 3, Seed: 902}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New([]TenantConfig{{Instance: in, Policy: plainPolicy{}}}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(ctx, 0, ResolveOptions{Install: true}); err == nil {
		t.Fatal("install accepted on a policy without Reinstall")
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot poisoned by a per-request resolve error: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close poisoned by a per-request resolve error: %v", err)
	}
}

// blockingPolicy admits nothing and parks every arrival until gate is
// closed, reporting each entry on entered; it lets tests park a shard
// worker and fill its queue deterministically.
type blockingPolicy struct {
	entered chan struct{}
	gate    chan struct{}
}

func (p *blockingPolicy) Name() string { return "test-blocking" }
func (p *blockingPolicy) OnStreamArrival(s int) []int {
	p.entered <- struct{}{}
	<-p.gate
	return nil
}

// TestClusterQueueFullReject pins BackpressureReject: once the worker
// is parked and the queue is full, session calls fail fast with
// ErrQueueFull instead of blocking.
func TestClusterQueueFullReject(t *testing.T) {
	ctx := context.Background()
	in, err := generator.CableTV{Channels: 8, Gateways: 3, Seed: 901}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol := &blockingPolicy{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	c, err := New([]TenantConfig{{Instance: in, Policy: pol}},
		Options{Shards: 1, QueueDepth: 1, Backpressure: BackpressureReject})
	if err != nil {
		t.Fatal(err)
	}
	// Park the worker: the first offer reaches the policy and blocks
	// there (acked arrivals flush immediately). Issued from a goroutine
	// because the session call itself blocks until the result arrives.
	first := make(chan error, 1)
	go func() {
		_, err := c.OfferStream(ctx, 0, 0)
		first <- err
	}()
	select {
	case <-pol.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the policy")
	}
	// Worker parked and its queue empty: one fire-and-forget event
	// fills the depth-1 queue, so the next session call must reject.
	if err := c.post(Event{Tenant: 0, Type: EventStreamArrival, Stream: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OfferStream(ctx, 0, 2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(pol.gate) // release the worker; the parked offer completes
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPolicyKinds(t *testing.T) {
	in, err := generator.CableTV{Channels: 10, Gateways: 4, Seed: 1000}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"", "online", "online-unguarded", "threshold", "oracle", "static"} {
		pol, err := headend.NewPolicyByName(in, kind)
		if err != nil {
			t.Fatalf("NewPolicyByName(%q): %v", kind, err)
		}
		if pol.Name() == "" {
			t.Fatalf("NewPolicyByName(%q): empty name", kind)
		}
		fs := runFleet(t, []TenantConfig{{Instance: in, Policy: pol}},
			Options{Shards: 1}, Workload{Seed: 5})
		if !fs.AllFeasible {
			t.Fatalf("policy %q produced an infeasible tenant", kind)
		}
	}
	if _, err := headend.NewPolicyByName(in, "nope"); err == nil {
		t.Fatal("unknown policy kind accepted")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := New([]TenantConfig{{Instance: (*mmd.Instance)(nil)}}, Options{}); err == nil {
		t.Fatal("nil instance accepted")
	}
}

func TestClusterRenderShape(t *testing.T) {
	fs := runFleet(t, tenantInstances(t, 3, 10, 4, 1100),
		Options{Shards: 2}, Workload{Seed: 9})
	out := fs.Render()
	for _, want := range []string{"fleet: 3 tenants on 2 shards", "shard  tenants", "tenant  policy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(fs.RenderTenants(), "\n"); lines != 4 {
		t.Fatalf("tenant table has %d lines, want 4", lines)
	}
}
