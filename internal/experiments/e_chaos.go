package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/catalog/remote"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/httpserve"
	"repro/internal/wal"
	"repro/streamclient"
)

// E15Config parameterizes E15.
type E15Config struct {
	// Tenants is the fleet size (it must be at least the largest shard
	// count — the cluster clamps shards to tenants); Channels/Gateways
	// shape each tenant.
	Tenants, Channels, Gateways int
	// Seed drives instance generation and every chaos plan.
	Seed int64
	// ShardCounts are the serving layouts drilled; each crashed fleet
	// recovers into the NEXT count in the list (wrapping).
	ShardCounts []int
	// FailSyncAt is the fsync-fault drill's trigger: the Nth sync on
	// the shard-0 segment fails and latches (the count includes the
	// open-time preallocation sync).
	FailSyncAt int
}

// DefaultE15 returns the parameters behind mmdbench's E15 table.
func DefaultE15() E15Config {
	return E15Config{
		Tenants: 8, Channels: 8, Gateways: 3, Seed: 151,
		ShardCounts: []int{1, 2, 4, 8},
		FailSyncAt:  40,
	}
}

// e15Models is the catalog cost-model sweep shared by the drills.
var e15Models = []struct {
	name  string
	model catalog.CostModel
}{
	{"isolated", catalog.Isolated{}},
	{"shared-origin", catalog.SharedOrigin{ReplicationFraction: 0.25}},
}

// e15Options builds the fleet options for one drill run.
func e15Options(cfg E15Config, shards int, model catalog.CostModel) cluster.Options {
	return cluster.Options{
		Shards: shards, BatchSize: 8,
		Catalog: &cluster.CatalogOptions{
			Streams:   catalog.IdentityBindings(cfg.Tenants, cfg.Channels, e14ChannelID),
			CostModel: model,
		},
	}
}

// e15Schedule is the deterministic serial drill schedule in wire form:
// two equal rounds of interleaved plain offers, catalog offers (every
// third channel), departures, and gateway churn, serial per tenant — so
// per-tenant ordering, which the WAL must reproduce, is fixed. The
// disconnect and multi-node drills push it over the wire, and the
// control fleets, E14 and the fsync drill apply each event with
// Cluster.Apply.
func e15Schedule(cfg E15Config) []streamclient.Event {
	var out []streamclient.Event
	for round := 0; round < 2; round++ {
		for t := 0; t < cfg.Tenants; t++ {
			for s := 0; s < cfg.Channels; s++ {
				if s%3 == 0 {
					out = append(out, streamclient.Event{Tenant: t, Type: "catalog-offer", CatalogID: string(e14ChannelID(s))})
				} else {
					out = append(out, streamclient.Event{Tenant: t, Type: "offer", Stream: s})
				}
				if s%3 == 2 && s > 2 {
					if s%6 == 5 {
						out = append(out, streamclient.Event{Tenant: t, Type: "catalog-depart", CatalogID: string(e14ChannelID(s - 2))})
					} else {
						out = append(out, streamclient.Event{Tenant: t, Type: "depart", Stream: s - 1})
					}
				}
				if s%5 == 4 {
					out = append(out, streamclient.Event{Tenant: t, Type: "leave", User: (s + t) % cfg.Gateways})
					out = append(out, streamclient.Event{Tenant: t, Type: "join", User: (s + t) % cfg.Gateways})
				}
			}
		}
	}
	return out
}

// e15DrainRefs is the reference audit: depart every confirmed catalog
// holder on the recovered fleet and check the registry settles to zero
// references. A reference a crashed connection leaked, or one a
// replayed event double-acquired, cannot reach zero here.
func e15DrainRefs(c *cluster.Cluster) (bool, error) {
	snap, err := c.CatalogSnapshot()
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	for _, e := range snap.Entries {
		for _, t := range e.Holders {
			if _, err := c.DepartCatalogStream(ctx, t, e.ID); err != nil {
				return false, fmt.Errorf("drain %s at tenant %d: %w", e.ID, t, err)
			}
		}
	}
	snap, err = c.CatalogSnapshot()
	if err != nil {
		return false, err
	}
	for _, e := range snap.Entries {
		if e.Refs != 0 {
			return false, nil
		}
	}
	return true, nil
}

// e15AllApplied replays the whole schedule on session sid of a
// recovered fleet and reports whether every event comes back a dup: the
// applied set the recovery rebuilt holds each seq. Dups cross no shard.
func e15AllApplied(c *cluster.Cluster, sid string, schedule []streamclient.Event) (bool, error) {
	sc, err := c.OpenStream(cluster.StreamOptions{Session: sid})
	if err != nil {
		return false, err
	}
	defer sc.Close()
	ctx := context.Background()
	for i, ev := range schedule {
		rev := ev.Routed()
		rev.SessionSeq = uint64(i + 1)
		if err := sc.Submit(ctx, rev); err != nil {
			return false, err
		}
		if res, err := sc.Recv(ctx); err != nil || !res.Dup || res.Seq != i+1 {
			return false, err
		}
	}
	return true, nil
}

// e15Control builds a fault-free fleet, applies the first n schedule
// events, and returns its renders.
func e15Control(cfg E15Config, shards int, model catalog.CostModel, schedule []streamclient.Event) (*cluster.Cluster, error) {
	tenants, err := e14Tenants(E14Config{
		Tenants: cfg.Tenants, Channels: cfg.Channels, Gateways: cfg.Gateways, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(tenants, e15Options(cfg, shards, model))
	if err != nil {
		return nil, err
	}
	for i, ev := range schedule {
		if _, err := c.Apply(context.Background(), ev.Routed()); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("control event %d: %w", i, err)
		}
	}
	return c, nil
}

// e15Tenants regenerates the fleet (one call per simulated process
// lifetime, like e14Tenants).
func e15Tenants(cfg E15Config) ([]cluster.TenantConfig, error) {
	return e14Tenants(E14Config{
		Tenants: cfg.Tenants, Channels: cfg.Channels, Gateways: cfg.Gateways, Seed: cfg.Seed,
	})
}

// e15Disconnect is the disconnect-storm drill: the schedule is driven
// through the real HTTP front end by a resumable streamclient.Session
// while a seeded chaos listener cuts, stalls, and partial-writes the
// connections under it. The client reconnects with backoff and replays
// its unacked window; the session's applied set turns replays of
// already-applied events into dup acknowledgements. The fleet is then
// abandoned (crash) and recovered into a different shard count; its
// renders must match a control fleet that applied the same schedule
// over a connection that never failed, and a replay must be all dups.
func e15Disconnect(cfg E15Config, shards, recoverShards int, mi int) ([]string, bool, error) {
	m := e15Models[mi]
	schedule := e15Schedule(cfg)

	control, err := e15Control(cfg, shards, m.model, schedule)
	if err != nil {
		return nil, false, err
	}
	wantTables, wantCat, err := e14Renders(control)
	if err != nil {
		return nil, false, err
	}
	if err := control.Close(); err != nil {
		return nil, false, err
	}

	dir, err := os.MkdirTemp("", "e15-storm-*")
	if err != nil {
		return nil, false, err
	}
	defer os.RemoveAll(dir)
	opts := e15Options(cfg, shards, m.model)
	opts.WAL = &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch}
	tenants, err := e15Tenants(cfg)
	if err != nil {
		return nil, false, err
	}
	doomed, err := cluster.New(tenants, opts)
	if err != nil {
		return nil, false, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, false, err
	}
	scripts := chaos.PlanConnScripts(cfg.Seed+int64(shards)*31+int64(mi), 64)
	srv := &http.Server{Handler: httpserve.NewHandlerOpts(doomed, httpserve.Options{
		StreamWriteTimeout: 5 * time.Second,
	})}
	go func() {
		_ = srv.Serve(chaos.WrapListener(ln, func(i int) chaos.ConnScript { return scripts[i%len(scripts)] }))
	}()

	sid := fmt.Sprintf("e15-storm-%d-%s", shards, m.name)
	sess, err := streamclient.NewSession("http://"+ln.Addr().String(), streamclient.SessionOptions{
		ID: sid, Seed: cfg.Seed,
		MaxAttempts: 16,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	})
	if err != nil {
		return nil, false, err
	}
	for i, ev := range schedule {
		if err := sess.Send(ev); err != nil {
			return nil, false, fmt.Errorf("storm send %d: %w", i, err)
		}
		// Serial driving: wait for this event's ack (a typed result or a
		// dup acknowledgement) before the next submit, so the applied
		// order is the schedule order no matter where connections die.
		for budget := 0; ; budget++ {
			res, rerr := sess.Recv()
			if rerr != nil {
				return nil, false, fmt.Errorf("storm recv %d: %w", i, rerr)
			}
			if res.Error != "" {
				return nil, false, fmt.Errorf("storm event %d: server error %q", i, res.Error)
			}
			if res.Seq == i+1 {
				break
			}
			if budget > len(schedule) {
				return nil, false, fmt.Errorf("storm event %d: ack never arrived (last seq %d)", i, res.Seq)
			}
		}
	}
	if err := sess.CloseSend(); err != nil {
		return nil, false, err
	}
	for {
		if _, err := sess.Recv(); err == io.EOF {
			break
		} else if err != nil {
			return nil, false, fmt.Errorf("storm drain: %w", err)
		}
	}
	dups, redials := sess.Dups(), sess.Redials()
	_ = sess.Close()
	_ = srv.Close()
	// The fleet is abandoned here — no Close — modeling a crash right
	// after the last ack.

	tenants, err = e15Tenants(cfg)
	if err != nil {
		return nil, false, err
	}
	recOpts := opts
	recOpts.Shards = recoverShards
	recovered, _, err := cluster.Recover(tenants, recOpts)
	if err != nil {
		return nil, false, fmt.Errorf("storm recover %d->%d (%s): %w", shards, recoverShards, m.name, err)
	}
	gotTables, gotCat, err := e14Renders(recovered)
	if err != nil {
		return nil, false, err
	}
	identical := gotTables == wantTables && gotCat == wantCat
	appliedOK, err := e15AllApplied(recovered, sid, schedule)
	if err != nil {
		return nil, false, err
	}
	refsZero, err := e15DrainRefs(recovered)
	if err != nil {
		return nil, false, err
	}
	if err := recovered.Close(); err != nil {
		return nil, false, err
	}

	ok := identical && appliedOK && refsZero && redials >= 2
	row := []string{
		"disconnect", d(shards), d(recoverShards), m.name, d(len(schedule)),
		fmt.Sprintf("redials=%d dups=%d applied=%v", redials, dups, appliedOK),
		fmt.Sprintf("%v", identical),
		fmt.Sprintf("%v", refsZero),
	}
	return row, ok, nil
}

// e15Fsync is the fsync-fault drill: the shard-0 segment's Nth sync
// fails and latches, so under group commit the in-flight event's ack
// arrives as ErrNotDurable and every later submission fails fast. The
// abandoned log is recovered (clean disk) into a different shard
// count; because driving was serial with one event in flight, the
// recovered state must equal the control after k acked events or k+1 —
// the failed event's bytes reached the file even though its fsync
// lied, so it may legitimately survive. Nothing past the latch may.
func e15Fsync(cfg E15Config, recoverShards int, mi int) ([]string, bool, error) {
	m := e15Models[mi]
	schedule := e15Schedule(cfg)

	dir, err := os.MkdirTemp("", "e15-fsync-*")
	if err != nil {
		return nil, false, err
	}
	defer os.RemoveAll(dir)
	opts := e15Options(cfg, 1, m.model)
	opts.WAL = &cluster.WALOptions{
		Dir: dir, Sync: wal.SyncBatch,
		FS: chaos.NewFS(nil, chaos.FileFault{Match: "-s0.", FailSyncAt: cfg.FailSyncAt}),
	}
	tenants, err := e15Tenants(cfg)
	if err != nil {
		return nil, false, err
	}
	doomed, err := cluster.New(tenants, opts)
	if err != nil {
		return nil, false, err
	}

	acked := 0
	var firstErr error
	for _, ev := range schedule {
		if _, err := doomed.Apply(context.Background(), ev.Routed()); err != nil {
			firstErr = err
			break
		}
		acked++
	}
	if firstErr == nil {
		return nil, false, fmt.Errorf("fsync fault at %d never fired over %d events", cfg.FailSyncAt, len(schedule))
	}
	notDurable := errors.Is(firstErr, cluster.ErrNotDurable)
	// Fail fast: the appender latched, so the next submissions must be
	// refused too — no ack may ever ride past a failed sync.
	failFast := true
	for i := acked + 1; i < len(schedule) && i <= acked+3; i++ {
		if _, err := doomed.Apply(context.Background(), schedule[i].Routed()); err == nil {
			failFast = false
		}
	}
	// Abandoned here — the latched fleet is dead hardware.

	control, err := e15Control(cfg, recoverShards, m.model, schedule[:acked])
	if err != nil {
		return nil, false, err
	}
	wantKTables, wantKCat, err := e14Renders(control)
	if err != nil {
		return nil, false, err
	}
	if _, err := control.Apply(context.Background(), schedule[acked].Routed()); err != nil {
		return nil, false, err
	}
	wantK1Tables, wantK1Cat, err := e14Renders(control)
	if err != nil {
		return nil, false, err
	}
	if err := control.Close(); err != nil {
		return nil, false, err
	}

	tenants, err = e15Tenants(cfg)
	if err != nil {
		return nil, false, err
	}
	recOpts := opts
	recOpts.Shards = recoverShards
	recOpts.WAL = &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch} // clean disk for the new generation
	recovered, rep, err := cluster.Recover(tenants, recOpts)
	if err != nil {
		return nil, false, fmt.Errorf("fsync recover into %d (%s): %w", recoverShards, m.name, err)
	}
	gotTables, gotCat, err := e14Renders(recovered)
	if err != nil {
		return nil, false, err
	}
	identical := (gotTables == wantKTables && gotCat == wantKCat) ||
		(gotTables == wantK1Tables && gotCat == wantK1Cat)
	refsZero, err := e15DrainRefs(recovered)
	if err != nil {
		return nil, false, err
	}
	if err := recovered.Close(); err != nil {
		return nil, false, err
	}

	ok := identical && notDurable && failFast && refsZero
	row := []string{
		"fsync-fault", "1", d(recoverShards), m.name, d(rep.Events),
		fmt.Sprintf("fsync@%d acked=%d not-durable=%v fail-fast=%v", cfg.FailSyncAt, acked, notDurable, failFast),
		fmt.Sprintf("%v", identical),
		fmt.Sprintf("%v", refsZero),
	}
	return row, ok, nil
}

// e15FlashCrowd is the queue-storm drill: seeded bursts of concurrent
// submitters hammer a fleet with a deliberately tiny shard queue under
// fail-fast backpressure, while a streaming connection's consumer
// stalls so the in-flight window takes pressure too. Rejected events
// vanish (fast 429-class failures); applied events are durable. The
// pre-crash barrier snapshot is the drill's own control: recovery into
// a different shard count must reproduce it bit-identically even
// though the schedule was a nondeterministic concurrent interleave —
// the WAL's log order is the truth the replay follows.
func e15FlashCrowd(cfg E15Config, shards, recoverShards int, mi int) ([]string, bool, error) {
	m := e15Models[mi]
	dir, err := os.MkdirTemp("", "e15-crowd-*")
	if err != nil {
		return nil, false, err
	}
	defer os.RemoveAll(dir)
	opts := e15Options(cfg, shards, m.model)
	opts.QueueDepth = 2
	opts.Backpressure = cluster.BackpressureReject
	opts.WAL = &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch}
	tenants, err := e15Tenants(cfg)
	if err != nil {
		return nil, false, err
	}
	doomed, err := cluster.New(tenants, opts)
	if err != nil {
		return nil, false, err
	}

	ctx := context.Background()
	sc, err := doomed.OpenStream(cluster.StreamOptions{Window: 64})
	if err != nil {
		return nil, false, err
	}
	var rejected atomic.Int64
	pending := 0
	bursts := chaos.PlanStorm(cfg.Seed+int64(shards)*17+int64(mi), 3)
	for bi, b := range bursts {
		if b.StallConsumer {
			// Pile events onto the stream while nothing Recvs: the
			// in-flight window, not just the shard queues, holds the
			// storm's state until the post-burst drain.
			for e := 0; e < 8; e++ {
				ev := cluster.Event{
					Type:   cluster.EventStreamArrival,
					Tenant: (bi + e) % cfg.Tenants, Stream: (bi*3 + e) % cfg.Channels,
				}
				if err := sc.Submit(ctx, ev); err != nil {
					if !errors.Is(err, cluster.ErrQueueFull) {
						return nil, false, fmt.Errorf("crowd stream submit: %w", err)
					}
					rejected.Add(1)
				} else {
					pending++
				}
			}
		}
		// A flash crowd is one concurrent caller per request, not a few
		// serial ones: every event of the burst races its own goroutine,
		// and the whole crowd lands on one hot tenant, so its shard queue
		// overflows even when the fleet has many shards. The typed API
		// blocks each caller until its ack, so the crowd's concurrency is
		// the real queue pressure. The callers start together: released
		// as they are spawned, the early ones would be served before the
		// late ones arrive, and the crowd would overload the queue only
		// when the shard happened to be slow.
		var wg sync.WaitGroup
		var bad atomic.Value
		start := make(chan struct{})
		for g := 0; g < b.Submitters; g++ {
			for e := 0; e < b.EventsPer; e++ {
				wg.Add(1)
				go func(g, e int) {
					defer wg.Done()
					<-start
					s := (bi*7 + g*3 + e) % cfg.Channels
					var err error
					switch e % 3 {
					case 0:
						_, err = doomed.OfferCatalogStream(ctx, 0, e14ChannelID(s))
					case 1:
						_, err = doomed.OfferStream(ctx, 0, s)
					default:
						_, err = doomed.DepartStream(ctx, 0, s)
					}
					if errors.Is(err, cluster.ErrQueueFull) {
						rejected.Add(1)
					} else if errors.Is(err, cluster.ErrClosed) || errors.Is(err, cluster.ErrCanceled) {
						bad.Store(err) // transport-level failures are drill bugs; data-level rejects are the workload
					}
				}(g, e)
			}
		}
		close(start)
		// The stream floods the hot tenant alongside the crowd. It
		// submits without waiting for results, so it outpaces the worker
		// even when the scheduler serves the blocking crowd one caller at
		// a time — and such a crowd need not overflow the queue, because
		// the worker keeps applying while a group commit is in flight.
		// So the queue overflows whatever the scheduler does.
		for e := 0; e < b.EventsPer; e++ {
			ev := cluster.Event{Type: cluster.EventStreamArrival, Tenant: 0, Stream: (bi*5 + e) % cfg.Channels}
			if err := sc.Submit(ctx, ev); err != nil {
				return nil, false, fmt.Errorf("crowd stream submit: %w", err)
			}
			pending++
		}
		wg.Wait()
		if err, _ := bad.Load().(error); err != nil {
			return nil, false, fmt.Errorf("crowd submitter: %w", err)
		}
		for ; pending > 0; pending-- {
			res, err := sc.Recv(ctx)
			if err != nil {
				return nil, false, fmt.Errorf("crowd stream drain: %w", err)
			}
			// A streamed event the full shard queue refused is rejected
			// in-band, as its result's error.
			if errors.Is(res.Err, cluster.ErrQueueFull) {
				rejected.Add(1)
			}
		}
	}
	sc.CloseSend()
	if err := sc.Close(); err != nil {
		return nil, false, err
	}

	// The barrier snapshot is the control: everything applied has
	// settled and, under group commit, is durable.
	fs, err := doomed.Snapshot()
	if err != nil {
		return nil, false, err
	}
	wantTables := fs.RenderTenants()
	wantCat := ""
	if fs.Catalog != nil {
		wantCat = fs.Catalog.Render()
	}
	// Abandoned here (crash).

	tenants, err = e15Tenants(cfg)
	if err != nil {
		return nil, false, err
	}
	recOpts := opts
	recOpts.Shards = recoverShards
	recovered, rep, err := cluster.Recover(tenants, recOpts)
	if err != nil {
		return nil, false, fmt.Errorf("crowd recover %d->%d (%s): %w", shards, recoverShards, m.name, err)
	}
	gotTables, gotCat, err := e14Renders(recovered)
	if err != nil {
		return nil, false, err
	}
	identical := gotTables == wantTables && gotCat == wantCat
	refsZero, err := e15DrainRefs(recovered)
	if err != nil {
		return nil, false, err
	}
	if err := recovered.Close(); err != nil {
		return nil, false, err
	}

	// The drill must actually overload: a crowd that never hit a full
	// queue proved nothing about rejected events vanishing cleanly.
	ok := identical && refsZero && rejected.Load() > 0
	row := []string{
		"flash-crowd", d(shards), d(recoverShards), m.name, d(rep.Events),
		fmt.Sprintf("bursts=%d rejected=%d", len(bursts), rejected.Load()),
		fmt.Sprintf("%v", identical),
		fmt.Sprintf("%v", refsZero),
	}
	return row, ok, nil
}

// e15MultiNode is the fleet drill: a catalog service, two node
// processes, and a router (serving API v7) serve the schedule while a
// chaos dialer cuts the router's first node connections mid-stream.
// The router's upstream sessions redial and replay their unacked
// window; the nodes' applied sets turn replays into dup acknowledgements,
// so no event is double-applied even though the fault hits after a node
// may have applied the in-flight event. The merged fleet snapshot must
// render bit-identical to a 1-process control, and the registry must
// drain to zero references through the router.
func e15MultiNode(cfg E15Config, nodes, shards, mi int) ([]string, bool, error) {
	m := e15Models[mi]
	schedule := e15Schedule(cfg)

	control, err := e15Control(cfg, shards, m.model, schedule)
	if err != nil {
		return nil, false, err
	}
	wantTables, wantCat, err := e14Renders(control)
	if err != nil {
		return nil, false, err
	}
	if err := control.Close(); err != nil {
		return nil, false, err
	}

	// The catalog service: one registry process owning every settlement.
	reg, err := catalog.NewRegistry(catalog.IdentityBindings(cfg.Tenants, cfg.Channels, e14ChannelID), m.model)
	if err != nil {
		return nil, false, err
	}
	defer reg.Close()
	catLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, false, err
	}
	catSrv := &http.Server{Handler: remote.NewHandler(reg)}
	go func() { _ = catSrv.Serve(catLn) }()
	defer catSrv.Close()
	catURL := "http://" + catLn.Addr().String()

	// The node processes: full clusters settling against the service.
	urls := make([]string, nodes)
	for k := 0; k < nodes; k++ {
		rc, err := remote.Dial(catURL, remote.Options{})
		if err != nil {
			return nil, false, err
		}
		tenants, err := e15Tenants(cfg)
		if err != nil {
			return nil, false, err
		}
		opts := e15Options(cfg, shards, m.model)
		opts.Catalog.Remote = rc
		node, err := cluster.New(tenants, opts)
		if err != nil {
			return nil, false, err
		}
		defer node.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, false, err
		}
		srv := &http.Server{Handler: httpserve.NewHandler(node)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		urls[k] = "http://" + ln.Addr().String()
	}

	// The router, with the chaos seam on its node dials: the first two
	// router→node connections die after 9 writes; replacements are
	// clean. The plan callback fires once per dial, so the count is the
	// redial evidence (first contact costs one dial per node touched).
	var dials atomic.Int64
	dial := chaos.Dialer(func(i int) chaos.ConnScript {
		dials.Add(1)
		if i < 2 {
			return chaos.ConnScript{CutAfterWrites: 9}
		}
		return chaos.ConnScript{}
	}, nil)
	rt, err := fleet.NewRouter(fleet.Options{
		Plan:  fleet.Plan{Nodes: nodes, Shards: shards},
		Nodes: urls,
		ID:    fmt.Sprintf("e15-mn-%d-%s", shards, m.name),
		Dial:  dial,
	})
	if err != nil {
		return nil, false, err
	}
	defer rt.Close()
	rtLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, false, err
	}
	rtSrv := &http.Server{Handler: rt.Handler()}
	go func() { _ = rtSrv.Serve(rtLn) }()
	defer rtSrv.Close()
	rtURL := "http://" + rtLn.Addr().String()

	drive := func(sid string, evs []streamclient.Event) (int, error) {
		sess, err := streamclient.NewSession(rtURL, streamclient.SessionOptions{
			ID: sid, Seed: cfg.Seed,
			MaxAttempts: 16,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		})
		if err != nil {
			return 0, err
		}
		defer sess.Close()
		for i, ev := range evs {
			if err := sess.Send(ev); err != nil {
				return 0, fmt.Errorf("%s send %d: %w", sid, i, err)
			}
			for budget := 0; ; budget++ {
				res, rerr := sess.Recv()
				if rerr != nil {
					return 0, fmt.Errorf("%s recv %d: %w", sid, i, rerr)
				}
				if res.Error != "" {
					return 0, fmt.Errorf("%s event %d: server error %q", sid, i, res.Error)
				}
				if res.Seq == i+1 {
					break
				}
				if budget > len(evs) {
					return 0, fmt.Errorf("%s event %d: ack never arrived (last seq %d)", sid, i, res.Seq)
				}
			}
		}
		if err := sess.CloseSend(); err != nil {
			return 0, err
		}
		for {
			if _, err := sess.Recv(); err == io.EOF {
				break
			} else if err != nil {
				return 0, fmt.Errorf("%s drain: %w", sid, err)
			}
		}
		return sess.Dups(), nil
	}
	dups, err := drive("e15-mn-client", schedule)
	if err != nil {
		return nil, false, err
	}
	baseline := dials.Load() // dials spent serving the schedule, cuts included

	// The merged fleet snapshot against the 1-process control.
	resp, err := http.Get(rtURL + "/v1/fleet/snapshot")
	if err != nil {
		return nil, false, err
	}
	var fs cluster.FleetSnapshot
	err = json.NewDecoder(resp.Body).Decode(&fs)
	_ = resp.Body.Close()
	if err != nil {
		return nil, false, fmt.Errorf("merged snapshot: %w", err)
	}
	gotTables, gotCat := fs.RenderTenants(), ""
	if fs.Catalog != nil {
		gotCat = fs.Catalog.Render()
	}
	identical := gotTables == wantTables && gotCat == wantCat

	// The reference audit, through the router: depart every confirmed
	// holder and require the registry to settle at zero.
	snap := reg.Snapshot()
	if snap == nil {
		return nil, false, fmt.Errorf("registry snapshot unavailable")
	}
	var drains []streamclient.Event
	for _, e := range snap.Entries {
		for _, t := range e.Holders {
			drains = append(drains, streamclient.Event{Tenant: t, Type: "catalog-depart", CatalogID: string(e.ID)})
		}
	}
	if _, err := drive("e15-mn-drain", drains); err != nil {
		return nil, false, err
	}
	refsZero := true
	if snap = reg.Snapshot(); snap == nil {
		return nil, false, fmt.Errorf("registry snapshot unavailable after drain")
	}
	for _, e := range snap.Entries {
		if e.Refs != 0 {
			refsZero = false
		}
	}

	// nodes dials reach the fleet fault-free; the two cut connections
	// force at least two more.
	redialed := baseline >= int64(nodes)+2
	ok := identical && refsZero && redialed
	row := []string{
		"multi-node", d(shards), fmt.Sprintf("%d-node fleet", nodes), m.name, d(len(schedule)),
		fmt.Sprintf("node-dials=%d dups=%d", baseline, dups),
		fmt.Sprintf("%v", identical),
		fmt.Sprintf("%v", refsZero),
	}
	return row, ok, nil
}

// E15ChaosDrills drills the chaos layer end to end: seeded disconnect
// storms against the HTTP front end with a reconnecting exactly-once
// client, latched fsync faults under group commit, and flash-crowd
// queue storms under fail-fast backpressure — each followed by a crash
// and a recovery into a different shard count — plus a multi-node
// fleet cell that cuts the router→node hop instead of the client hop.
// The claim holds when every recovery (and the merged fleet) renders
// bit-identical to its control, no event is ever double-applied
// (applied-set dedup + reference audit), and post-fault submissions fail
// fast instead of acking non-durable state.
func E15ChaosDrills(cfg E15Config) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Chaos drills: disconnect storms, fsync faults, flash crowds",
		Claim: "Under seeded fault injection — scripted connection cuts/stalls/partial " +
			"writes, latched fsync failures, and queue-full storms — the fleet " +
			"degrades without corrupting: recovery renders bit-identical at every " +
			"shard count under both cost models, reconnect replay applies every " +
			"event exactly once, references settle to zero, and nothing acks past " +
			"a failed sync",
		Columns: []string{"drill", "shards", "recovered into", "cost model",
			"events", "chaos", "bit-identical", "refs settle"},
	}

	allHold := true
	run := func(row []string, ok bool, err error) error {
		if err != nil {
			return err
		}
		allHold = allHold && ok
		t.Rows = append(t.Rows, row)
		return nil
	}

	for si, shards := range cfg.ShardCounts {
		recoverShards := cfg.ShardCounts[(si+1)%len(cfg.ShardCounts)]
		for mi := range e15Models {
			if err := run(e15Disconnect(cfg, shards, recoverShards, mi)); err != nil {
				return nil, fmt.Errorf("E15 disconnect: %w", err)
			}
		}
	}
	for si, recoverShards := range cfg.ShardCounts {
		if err := run(e15Fsync(cfg, recoverShards, si%len(e15Models))); err != nil {
			return nil, fmt.Errorf("E15 fsync: %w", err)
		}
	}
	for si, shards := range cfg.ShardCounts {
		recoverShards := cfg.ShardCounts[(si+1)%len(cfg.ShardCounts)]
		if err := run(e15FlashCrowd(cfg, shards, recoverShards, (si+1)%len(e15Models))); err != nil {
			return nil, fmt.Errorf("E15 flash-crowd: %w", err)
		}
	}
	// One fleet cell: the disconnect storm's exactly-once claim, but
	// with the cut on the router→node hop of a real multi-process fleet
	// (serving API v7) instead of the client→server hop.
	if err := run(e15MultiNode(cfg, 2, cfg.ShardCounts[len(cfg.ShardCounts)-1], 1)); err != nil {
		return nil, fmt.Errorf("E15 multi-node: %w", err)
	}
	t.Verdict = verdict(allHold)
	t.Notes = "Every drill is seeded and replayable: connection scripts, fsync " +
		"triggers, and burst shapes derive from the config seed. Crash = the " +
		"fleet is abandoned with no shutdown path run; each recovery replays " +
		"into a different shard count than the one that logged. The reference " +
		"audit departs every confirmed holder on the recovered fleet and " +
		"requires the registry to settle at zero — a leaked or double-applied " +
		"reference cannot."
	return t, nil
}
