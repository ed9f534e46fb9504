package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/catalog/remote"
	"repro/internal/core"
	"repro/streamclient"
)

// The traced run replays the same events at several rungs, each one
// layer further in, timing the public calls at each:
//
//	0  the HTTP stream with no wrappers: the untraced baseline
//	1  the HTTP stream with the seam wrappers installed
//	5  fleet-router: the same events sent straight to one node
//	2  the same cluster options in process, through Cluster.OpenStream
//	3  flash-durable: rung 2 with the WAL off and the registry wrapped
//	   and passed as CatalogOptions.Remote
//	4  direct headend.Tenant calls, pricing not shared
//
// A layer's self time is the difference between adjacent rungs. Rung 0
// fixes the event count every other rung replays, each on a fresh
// deployment from the start of the schedule.

// ladderDurableEvents caps the durable ladder's event count: recovering
// rung 1's log then needs a few hundred megabytes at most.
const ladderDurableEvents = 150_000

// gcCPU reads the runtime's cumulative GC CPU and busy (non-idle) CPU
// seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, v := range s {
		if v.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// clusterEvents converts the cycle to the cluster's routing form.
func clusterEvents(cycle []streamclient.Event) ([]videodist.ClusterEvent, error) {
	out := make([]videodist.ClusterEvent, len(cycle))
	for i, ev := range cycle {
		ce := videodist.ClusterEvent{Tenant: ev.Tenant, Stream: ev.Stream, User: ev.User, Install: ev.Install}
		switch ev.Type {
		case "offer":
			ce.Type = videodist.ClusterStreamArrival
		case "depart":
			ce.Type = videodist.ClusterStreamDeparture
		case "catalog-offer":
			ce.Type, ce.CatalogID = videodist.ClusterStreamArrival, videodist.CatalogID(ev.CatalogID)
		case "catalog-depart":
			ce.Type, ce.CatalogID = videodist.ClusterStreamDeparture, videodist.CatalogID(ev.CatalogID)
		case "leave":
			ce.Type = videodist.ClusterUserLeave
		case "join":
			ce.Type = videodist.ClusterUserJoin
		case "resolve":
			ce.Type = videodist.ClusterResolve
		default:
			return nil, fmt.Errorf("unknown event type %q", ev.Type)
		}
		out[i] = ce
	}
	return out, nil
}

// inprocRung is what one in-process rung measured.
type inprocRung struct {
	elapsed    time.Duration
	submitWait time.Duration
	allocs     float64 // per event
	snap       *videodist.FleetSnapshot
}

// streamReplay pushes n events through an in-process StreamConn — this
// goroutine submitting, another receiving — and counts results that
// carry an error or arrive out of order.
func streamReplay(c *videodist.Cluster, events []videodist.ClusterEvent, n int) (in inprocRung, bad int, err error) {
	sc, err := c.OpenStream(videodist.StreamOptions{Window: 16384})
	if err != nil {
		return in, 0, err
	}
	defer sc.Close()
	ctx := context.Background()
	type recvOut struct {
		bad int
		err error
	}
	recvDone := make(chan recvOut, 1)
	runtime.GC()
	m0 := mallocs()
	go func() {
		var out recvOut
		for i := 0; i < n; i++ {
			res, err := sc.Recv(ctx)
			if err != nil {
				out.err = err
				break
			}
			if res.Err != nil || res.Seq != i {
				out.bad++
			}
		}
		recvDone <- out
	}()
	start := now()
	var wait int64
	for i := 0; i < n; i++ {
		t0 := now()
		if err := sc.Submit(ctx, events[i%len(events)]); err != nil {
			sc.Close()
			<-recvDone
			return in, 0, err
		}
		wait += now() - t0
	}
	out := <-recvDone
	in.elapsed = time.Duration(now() - start)
	in.allocs = float64(mallocs()-m0) / float64(n)
	in.submitWait = time.Duration(wait)
	sc.CloseSend()
	if out.err != nil {
		return in, 0, out.err
	}
	in.snap, err = c.Snapshot()
	return in, out.bad, err
}

// wireCluster is fleet-router's in-process rung: one cluster holding
// every tenant, its catalog on the wire to a catalog service.
func (r *run) wireCluster(h hooks) (*videodist.Cluster, func(), error) {
	reg, err := catalog.NewRegistry(r.w.bindings(), r.w.costModel())
	if err != nil {
		return nil, nil, err
	}
	srv := startServer(remote.NewHandler(reg), nil)
	cleanup := func() {
		srv.CloseClientConnections()
		srv.Close()
		reg.Close()
	}
	rc, err := remote.Dial(srv.URL, remote.Options{})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	spy := &catalogSpy{Service: rc, name: "remote", tr: h.tr}
	*h.catalogClient = append(*h.catalogClient, spy)
	opts := r.w.clusterOptions("", h)
	opts.Catalog.Remote = spy
	c, err := videodist.NewCluster(r.w.tenantConfigs(r.instances), opts)
	if err != nil {
		rc.Close()
		cleanup()
		return nil, nil, err
	}
	return c, func() { c.Close(); cleanup() }, nil
}

// inProcessRung runs n events through Cluster.OpenStream on a fresh
// cluster built with h.
func (r *run) inProcessRung(tr *tracer, rung int, name string, h hooks, events []videodist.ClusterEvent, n int, rep *report) (inprocRung, error) {
	var c *videodist.Cluster
	cleanup := func() {}
	var err error
	if r.w.fleet {
		c, cleanup, err = r.wireCluster(h)
	} else {
		dir := r.walDir()
		if h.remoteCatalog {
			dir = ""
		}
		c, err = r.w.newCluster(r.instances, dir, h)
		cleanup = func() { c.Close(); removeWAL(dir) }
	}
	if err != nil {
		return inprocRung{}, err
	}
	defer cleanup()
	id, t0 := tr.beginRung(rung)
	in, bad, err := streamReplay(c, events, n)
	tr.endRung(id, name, t0)
	if err != nil {
		return in, fmt.Errorf("%s: %w", name, err)
	}
	if bad > 0 {
		rep.fail("%s: %d failed or out-of-order results", name, bad)
	}
	if !in.snap.AllFeasible {
		rep.fail("%s: fleet infeasible", name)
	}
	return in, nil
}

// catalogCalls summarises timed registry calls.
type catalogCalls struct {
	calls, ops          int
	acquireUs, settleUs []float64
	// busyNs is the time at least one call was in flight. Shard workers
	// call concurrently and queue at the registry's one owner, so summed
	// call durations would count the queueing once per waiter.
	busyNs int64
}

func summariseCatalog(spies []*catalogSpy) catalogCalls {
	var out catalogCalls
	var ivs []span
	whole := span{Start: -1}
	for _, s := range spies {
		for _, op := range s.ops() {
			out.calls++
			out.ops += op.ops
			d := op.end - op.start
			switch op.kind {
			case "acquire":
				out.acquireUs = append(out.acquireUs, float64(d)/1e3)
			case "settle":
				out.settleUs = append(out.settleUs, float64(d)/1e3)
			}
			ivs = append(ivs, span{Start: op.start, End: op.end})
			if whole.Start < 0 || op.start < whole.Start {
				whole.Start = op.start
			}
			whole.End = max(whole.End, op.end)
		}
	}
	if len(ivs) > 0 {
		out.busyNs = whole.End - whole.Start - selfTime(whole, ivs)
	}
	return out
}

// pct is a percentile, or 0 when too few samples support it (the
// human-readable lines say which).
func pct(samples []float64, q float64) float64 {
	v, _ := percentile(samples, q)
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the --trace 1 run: the ladder, with every output check
// of the measured run applied to its HTTP rung.
func runTraced(w *workload, cfg config) (*report, []span, error) {
	r, err := newRun(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	events, err := clusterEvents(r.cycle)
	if err != nil {
		return nil, nil, err
	}
	rep := newReport()
	tr := &tracer{}
	total := time.Duration(cfg.seconds * float64(time.Second))
	rung0For, pacedFor := total/5, total/5

	// Rung 0: the untraced closed loop fixes the event count n. The
	// durable ladder recovers rung 1's whole log, which recovery holds
	// in memory, so its n is capped.
	s, _, err := r.start(hooks{})
	if err != nil {
		return nil, nil, err
	}
	maxEvents := w.unpacedCap
	if w.durable {
		maxEvents = ladderDurableEvents
	}
	runtime.GC()
	cpu0 := cpuTime()
	closed0, err := s.g.unpaced(rung0For, rung0For/10, maxEvents)
	cpu0 = cpuTime() - cpu0
	if err != nil {
		s.stop()
		return nil, nil, fmt.Errorf("rung 0: %w", err)
	}
	if f := s.g.failures(); f > 0 {
		rep.fail("rung 0: %d failed results; first: %s", f, s.g.firstError())
	}
	if err := s.stop(); err != nil {
		return nil, nil, err
	}
	n := closed0.events
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }
	r0 := perEvent(closed0.elapsed)

	// Rung 1: the HTTP stream with the seam wrappers.
	h1 := hooks{tr: tr, listener: &ioCounts{}}
	var walIO *walStats
	if w.durable {
		walIO = &walStats{tr: tr}
		h1.wal = walIO
	}
	var clientSpies, serverSpies []*catalogSpy
	if w.fleet {
		h1.catalogClient, h1.catalogServer = &clientSpies, &serverSpies
		h1.dial = &dialCounter{}
	}
	s, _, err = r.start(h1)
	if err != nil {
		return nil, nil, err
	}
	defer s.stop()
	s.g.timeSends = true
	runtime.GC()
	gc0, busy0 := gcCPU()
	m0 := mallocs()
	id, t0 := tr.beginRung(1)
	d1, err := s.g.replay(n)
	if err != nil {
		return nil, nil, fmt.Errorf("rung 1: %w", err)
	}
	tr.endRung(id, "rung1.http", t0)
	allocs1 := float64(mallocs()-m0) / float64(n)
	gc1, busy1 := gcCPU()
	r1 := perEvent(d1)
	lc := h1.listener
	writes, lines := lc.writes.Load(), lc.linesOut.Load()
	wireBytes := lc.read.Load() + lc.written.Load()
	sendNs := s.g.sendNs
	var upstreamWrites int64
	if h1.dial != nil {
		upstreamWrites = h1.dial.writes.Load()
	}
	cat1 := summariseCatalog(clientSpies)
	// Pair each node's round trips with the registry calls behind them:
	// the wire time is the round trip's self time once the registry
	// span, its child, is taken out.
	var remoteRTT, remoteWire []float64
	for k, cs := range clientSpies {
		ops, srv := cs.ops(), serverSpies[k].ops()
		if len(srv) != len(ops) {
			rep.infof("node %d: %d round trips but %d registry calls; wire time not paired", k, len(ops), len(srv))
			continue
		}
		for i, c := range ops {
			sv := srv[i]
			child := span{Start: sv.start, End: sv.end}
			tr.recordID(tr.id(), c.span, "registry."+sv.kind, sv.start, sv.end)
			remoteRTT = append(remoteRTT, float64(c.end-c.start)/1e3)
			remoteWire = append(remoteWire, float64(selfTime(span{Start: c.start, End: c.end}, []span{child}))/1e3)
		}
	}

	// The paced phase, wrappers still on; one span per event from its
	// due time to its result.
	id, t0 = tr.beginRung(1)
	open, polls, err := s.pacedWithPolls(w, pacedFor)
	if err != nil {
		return nil, nil, fmt.Errorf("rung 1 paced: %w", err)
	}
	for j, ack := range open.acks {
		tr.record("event", open.pace.due(j), ack)
	}
	tr.endRung(id, "rung1.paced", t0)
	pacedWrites, pacedLines := lc.writes.Load()-writes, lc.linesOut.Load()-lines
	rep.attempted = s.g.sent + len(polls.durMs) + polls.failures
	rep.failed = s.g.failures() + polls.failures
	if polls.failures > 0 {
		rep.fail("%d snapshot polls failed", polls.failures)
	}
	walEvents := s.g.sent
	rec, err := r.checkOutputs(s, rep)
	if err != nil {
		return nil, nil, err
	}

	// Rung 5: fleet-router's events straight to node 0, which holds
	// every tenant; the gap to rung 1 is the router.
	var r5 float64
	if w.fleet {
		st, err := w.startStack(r.instances, "", hooks{})
		if err != nil {
			return nil, nil, err
		}
		g, err := dialLoadgen(st.nodeSrv[0].URL, r.cycle, nil)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		runtime.GC()
		id, t0 := tr.beginRung(5)
		d5, err := g.replay(n)
		tr.endRung(id, "rung5.node", t0)
		cerr := g.close()
		st.close()
		if err != nil {
			return nil, nil, fmt.Errorf("rung 5: %w", err)
		}
		if f := g.failures(); f > 0 || cerr != nil {
			rep.fail("rung 5: %d failed results (%v); first: %s", f, cerr, g.firstError())
		}
		r5 = perEvent(d5)
	}

	// Rung 2: the same options in process.
	var spies2 []*catalogSpy
	h2 := hooks{tr: tr, catalogClient: &spies2}
	if w.durable {
		h2.wal = &walStats{tr: tr}
	}
	in2, err := r.inProcessRung(tr, 2, "rung2.cluster", h2, events, n, rep)
	if err != nil {
		return nil, nil, err
	}
	r2 := perEvent(in2.elapsed)
	cat := summariseCatalog(spies2)

	// Rung 3: flash-durable without the WAL, its registry wrapped.
	var r3 float64
	if w.durable {
		var spies3 []*catalogSpy
		in3, err := r.inProcessRung(tr, 3, "rung3.catalog", hooks{tr: tr, catalogClient: &spies3, remoteCatalog: true}, events, n, rep)
		if err != nil {
			return nil, nil, err
		}
		r3 = perEvent(in3.elapsed)
		cat = summariseCatalog(spies3)
	}
	// The catalog's busy time comes off the rung it was measured on;
	// fleet-router reports the node clients' view of the real fleet.
	catBusy := float64(cat.busyNs) / float64(n)
	if w.fleet {
		cat = cat1
	}

	// Rung 4: direct head-end calls.
	var ds directStats
	runtime.GC()
	m0 = mallocs()
	id, t0 = tr.beginRung(4)
	start4 := now()
	tenants, err := directReplay(r.instances, r.cycle, n, &ds)
	d4 := time.Duration(now() - start4)
	tr.endRung(id, "rung4.headend", t0)
	if err != nil {
		return nil, nil, err
	}
	allocs4 := float64(mallocs()-m0) / float64(n)
	r4 := perEvent(d4)
	if !w.catalog {
		if got, want := in2.snap.RenderTenants(), tenantRender(tenants); got != want {
			rep.fail("rung 2 tables differ from rung 4: %s", firstDiff(got, want))
		}
	}
	var solveMs []float64
	id, t0 = tr.beginRung(4)
	for _, in := range ds.solveInputs {
		s0 := now()
		if _, _, err := core.Solve(in, core.Options{}); err != nil {
			return nil, nil, err
		}
		s1 := now()
		tr.record("core.solve", s0, s1)
		solveMs = append(solveMs, float64(s1-s0)/1e6)
	}
	tr.endRung(id, "rung4.solve", t0)

	// Self times from the rung differences. They telescope: with the
	// catalog's busy time and rung 4 they sum to rung 1 by construction,
	// so the ladder's gap to the untraced rung 0 is the tracing overhead.
	var httpSelf, forward, walSelf, clusterSelf float64
	switch {
	case w.fleet:
		forward = r1 - r5
		httpSelf = r5 - r2
		clusterSelf = r2 - r4 - catBusy
	case w.durable:
		httpSelf = r1 - r2
		walSelf = r2 - r3
		clusterSelf = r3 - r4 - catBusy
	default:
		httpSelf = r1 - r2
		clusterSelf = r2 - r4
		catBusy = 0
	}

	shardEvents, batches, maxShard := 0, 0, 0
	for _, st := range in2.snap.ShardStats {
		shardEvents += st.Events
		batches += st.Batches
		maxShard = max(maxShard, st.Events)
	}
	meanShard := ratio(float64(shardEvents), float64(len(in2.snap.ShardStats)))

	ackP50, _ := windowedPercentile(open.latencyUs, ackWindow, 0.50)
	ackP99, _ := windowedPercentile(open.latencyUs, ackWindow, 0.99)
	rep.set("loadgen.events_per_s", median(closed0.windowRates))
	rep.set("loadgen.cpu_us_per_event", float64(cpu0.Nanoseconds())/1e3/float64(n))
	rep.set("loadgen.ack_p50_us", ackP50)
	rep.set("loadgen.snapshot_p50_ms", pct(polls.durMs, 0.5))
	rep.set("loadgen.ack_p99_us", ackP99)
	rep.set("loadgen.late_p99_us", pct(open.lateUs, 0.99))
	rep.set("loadgen.ack_samples", float64(len(open.latencyUs)))
	rep.set("streamclient.send_ns_per_event", float64(sendNs)/float64(n))
	rep.set("httpserve.self_ns_per_event", httpSelf)
	rep.set("httpserve.wire_bytes_per_event", float64(wireBytes)/float64(n))
	rep.set("httpserve.events_per_write", ratio(float64(lines), float64(writes)))
	rep.set("httpserve.events_per_write_paced", ratio(float64(pacedLines), float64(pacedWrites)))
	rep.set("ladder.untraced_ns_per_event", r0)
	rep.set("ladder.http_ns_per_event", r1)
	rep.set("ladder.http_allocs_per_event", allocs1)
	rep.set("cluster.ns_per_event", r2)
	rep.set("cluster.self_ns_per_event", clusterSelf)
	rep.set("cluster.allocs_per_event", in2.allocs)
	rep.set("cluster.events_per_batch", ratio(float64(shardEvents), float64(batches)))
	rep.set("cluster.submit_wait_ns_per_event", float64(in2.submitWait.Nanoseconds())/float64(n))
	rep.set("cluster.shard_skew", ratio(float64(maxShard), meanShard))
	rep.set("headend.ns_per_event", r4)
	rep.set("headend.allocs_per_event", allocs4)
	rep.set("headend.admit_frac", ratio(float64(ds.admits), float64(ds.offers)))
	rep.set("headend.resolve_ms_p50", pct(ds.resolveMs, 0.5))
	rep.set("headend.resolve_ms_max", maxOf(ds.resolveMs))
	rep.set("headend.install_frac", ratio(float64(ds.installs), float64(ds.resolves)))
	rep.set("core.solve_ms_p50", pct(solveMs, 0.5))
	rep.set("catalog.calls_per_event", float64(cat.calls)/float64(n))
	rep.set("catalog.ops_per_call", ratio(float64(cat.ops), float64(cat.calls)))
	rep.set("catalog.acquire_us_p50", pct(cat.acquireUs, 0.5))
	rep.set("catalog.settle_us_p50", pct(cat.settleUs, 0.5))
	rep.set("catalog.busy_ns_per_event", float64(cat.busyNs)/float64(n))
	rep.set("remote.rtt_us_p50", pct(remoteRTT, 0.5))
	rep.set("remote.wire_us_p50", pct(remoteWire, 0.5))
	rep.set("wal.self_ns_per_event", walSelf)
	var syncs []float64
	var walWrites, walBytes int64
	if walIO != nil {
		walIO.mu.Lock()
		syncs = append(syncs, walIO.syncsUs...)
		walIO.mu.Unlock()
		walWrites, walBytes = walIO.writes.Load(), walIO.bytes.Load()
	}
	rep.set("wal.events_per_datasync", ratio(float64(walEvents), float64(len(syncs))))
	rep.set("wal.datasync_us_p50", pct(syncs, 0.5))
	rep.set("wal.datasync_us_p99", pct(syncs, 0.99))
	rep.set("wal.bytes_per_event", ratio(float64(walBytes), float64(walEvents)))
	rep.set("wal.writes_per_event", ratio(float64(walWrites), float64(walEvents)))
	rep.set("wal.recover_s", rec.seconds)
	rep.set("wal.recover_events_per_s", ratio(float64(rec.events), rec.seconds))
	rep.set("fleet.forward_us_per_event", forward/1e3)
	rep.set("fleet.upstream_writes_per_event", float64(upstreamWrites)/float64(n))
	rep.set("runtime.gc_cpu_frac", ratio(gc1-gc0, busy1-busy0))
	rep.set("trace.overhead_frac", 1-ratio(r0, r1))

	rep.infof("workload %s seed %d: ladder over %d events per rung (ns/event)", w.name, cfg.seed, n)
	rep.infof("  rung 0 untraced %.0f | rung 1 http %.0f | rung 5 node %.0f | rung 2 cluster %.0f | rung 3 no-wal %.0f | rung 4 headend %.0f",
		r0, r1, r5, r2, r3, r4)
	rep.infof("  allocs/event: rung 1 %.3f | rung 2 %.3f | rung 4 %.3f", allocs1, in2.allocs, allocs4)
	rep.infof("  self: http %.0f + forward %.0f + wal %.0f + cluster %.0f + catalog %.0f + headend %.0f = rung 1 %.0f; untraced %.0f",
		httpSelf, forward, walSelf, clusterSelf, catBusy, r4, r1, r0)
	rep.infof("  samples: acks %d, datasyncs %d, resolves %d, solves %d, catalog calls %d, remote pairs %d; spans kept %d, dropped %d",
		len(open.latencyUs), len(syncs), len(ds.resolveMs), len(solveMs), cat.calls, len(remoteRTT), len(tr.spans), tr.dropped)
	return rep, tr.spans, nil
}
