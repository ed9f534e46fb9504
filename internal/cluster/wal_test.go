package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/headend"
	"repro/internal/wal"
)

// walCatalogFleet builds a catalog fleet (identity bindings, like
// catalogTestFleet) with the durability log enabled. No Cleanup is
// registered: crash tests abandon the cluster without Close on
// purpose, and closing twice is safe for the ones that do close.
func walCatalogFleet(t *testing.T, n, channels, gateways int, seed int64, shards int,
	model catalog.CostModel, wopts *WALOptions) *Cluster {
	t.Helper()
	cfgs := walTenantConfigs(t, n, channels, gateways, seed)
	c, err := New(cfgs, walFleetOptions(n, channels, shards, model, wopts))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func walTenantConfigs(t *testing.T, n, channels, gateways int, seed int64) []TenantConfig {
	t.Helper()
	// Same construction as tenantInstances: regenerating from the seed
	// stands in for the restarted process rebuilding its static config.
	return tenantInstances(t, n, channels, gateways, seed)
}

func walFleetOptions(n, channels, shards int, model catalog.CostModel, wopts *WALOptions) Options {
	opts := Options{Shards: shards, BatchSize: 8, WAL: wopts}
	if model != nil {
		bindings := catalog.IdentityBindings(n, channels, func(s int) catalog.ID {
			return catalog.ID(fmt.Sprintf("s-%03d", s))
		})
		opts.Catalog = &CatalogOptions{Streams: bindings, CostModel: model}
	}
	return opts
}

// driveCatalogSchedule drives an interleaved offer/depart schedule
// through the catalog surface, with a churn and a resolve sprinkled in
// so every logged event type appears.
func driveCatalogSchedule(t *testing.T, c *Cluster, steps []catalogStep, salt int) {
	t.Helper()
	ctx := context.Background()
	for i, st := range steps {
		id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
		var err error
		if st.depart {
			_, err = c.DepartCatalogStream(ctx, st.tenant, id)
		} else {
			_, err = c.OfferCatalogStream(ctx, st.tenant, id)
		}
		if err != nil {
			t.Fatalf("schedule step %d (%+v): %v", i, st, err)
		}
		switch (i + salt) % 13 {
		case 3:
			if _, err := c.UserLeave(ctx, st.tenant, 1); err != nil {
				t.Fatalf("schedule step %d churn: %v", i, err)
			}
		case 7:
			if _, err := c.UserJoin(ctx, st.tenant, 1); err != nil {
				t.Fatalf("schedule step %d churn: %v", i, err)
			}
		case 11:
			if _, err := c.Resolve(ctx, st.tenant, ResolveOptions{}); err != nil {
				t.Fatalf("schedule step %d resolve: %v", i, err)
			}
		}
	}
}

// fleetRenders quiesces the fleet and returns its differential
// artifacts: the shard-count-invariant per-tenant table and the
// catalog render.
func fleetRenders(t *testing.T, c *Cluster) (tenants, cat string) {
	t.Helper()
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Catalog != nil {
		cat = fs.Catalog.Render()
	}
	return fs.RenderTenants(), cat
}

// TestWALRecoveryBitIdentical is the tentpole acceptance check: a
// fleet that crashes (abandoned without Close — every acknowledged
// event is durable under SyncBatch) and recovers from its log must
// render per-tenant tables and catalog state bit-identical to the
// never-crashed cluster — at shard counts 1, 2, 4, 8, under both cost
// models, recovering into a different shard count than it crashed
// with, and staying identical under continued traffic.
func TestWALRecoveryBitIdentical(t *testing.T) {
	const tenants, channels, gateways, seed = 5, 12, 5, 9100
	models := []struct {
		name  string
		model catalog.CostModel
	}{
		{"Isolated", catalog.Isolated{}},
		{"SharedOrigin", catalog.SharedOrigin{ReplicationFraction: 0.25}},
	}
	steps := catalogScheduleFor(tenants, channels, 31)
	half := len(steps) / 2
	for _, m := range models {
		for si, shards := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", m.name, shards), func(t *testing.T) {
				// The never-crashed control fleet.
				control := walCatalogFleet(t, tenants, channels, gateways, seed, shards, m.model, nil)
				defer control.Close()
				driveCatalogSchedule(t, control, steps[:half], 0)

				// The fleet that will crash, WAL on, group commit.
				dir := t.TempDir()
				crashed := walCatalogFleet(t, tenants, channels, gateways, seed, shards, m.model,
					&WALOptions{Dir: dir, Sync: wal.SyncBatch})
				driveCatalogSchedule(t, crashed, steps[:half], 0)

				wantTen, wantCat := fleetRenders(t, control)
				gotTen, gotCat := fleetRenders(t, crashed)
				if gotTen != wantTen || gotCat != wantCat {
					t.Fatalf("WAL-on fleet diverged from control before the crash:\n--- control\n%s%s\n--- wal\n%s%s",
						wantTen, wantCat, gotTen, gotCat)
				}
				// Crash: abandon without Close. Everything acknowledged is
				// already on disk (SyncBatch commits before each ack).

				// Recover into a different shard count than the crash's.
				recShards := []int{2, 4, 8, 1}[si]
				rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
					walFleetOptions(tenants, channels, recShards, m.model,
						&WALOptions{Dir: dir, Sync: wal.SyncBatch}))
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				defer rec.Close()
				if rep.Events == 0 || rep.CatalogOps == 0 || rep.MaxSeq == 0 {
					t.Fatalf("empty recovery report: %+v", rep)
				}
				if rep.DanglingReleased != 0 || rep.Reconciled != 0 {
					t.Fatalf("quiesced crash should need no repair: %+v", rep)
				}
				gotTen, gotCat = fleetRenders(t, rec)
				if gotTen != wantTen || gotCat != wantCat {
					t.Fatalf("recovered state diverges:\n--- want\n%s%s\n--- got\n%s%s",
						wantTen, wantCat, gotTen, gotCat)
				}

				// Continued traffic on both fleets stays identical.
				driveCatalogSchedule(t, control, steps[half:], 1)
				driveCatalogSchedule(t, rec, steps[half:], 1)
				wantTen, wantCat = fleetRenders(t, control)
				gotTen, gotCat = fleetRenders(t, rec)
				if gotTen != wantTen || gotCat != wantCat {
					t.Fatalf("post-recovery traffic diverges:\n--- want\n%s%s\n--- got\n%s%s",
						wantTen, wantCat, gotTen, gotCat)
				}
				if err := rec.Close(); err != nil {
					t.Fatalf("closing recovered fleet: %v", err)
				}
			})
		}
	}
}

// TestWALCheckpointVerification pins the fence mechanics: recovery
// crossing a mid-log checkpoint byte-compares its replayed state
// against the manifest render, and a clean close's manifest verifies
// the whole log.
func TestWALCheckpointVerification(t *testing.T) {
	const tenants, channels, gateways, seed = 4, 10, 5, 9200
	steps := catalogScheduleFor(tenants, channels, 33)
	half := len(steps) / 2
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}

	t.Run("mid-log checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		c := walCatalogFleet(t, tenants, channels, gateways, seed, 3, model,
			&WALOptions{Dir: dir, Sync: wal.SyncBatch})
		driveCatalogSchedule(t, c, steps[:half], 0)
		m, err := c.Checkpoint("checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		if m.Gen != 1 || m.Seq == 0 || m.TenantsRender == "" || m.CatalogRender == "" {
			t.Fatalf("manifest: %+v", m)
		}
		driveCatalogSchedule(t, c, steps[half:], 1)
		wantTen, wantCat := fleetRenders(t, c)
		// Crash after the checkpoint; replay must pause at the fence,
		// verify, then continue through the tail.
		rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
			walFleetOptions(tenants, channels, 2, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if !rep.CheckpointVerified || rep.CheckpointGen != 1 {
			t.Fatalf("checkpoint not verified: %+v", rep)
		}
		if rep.Gen != 4 {
			t.Fatalf("active generation after recovery = %d, want 4 (crashed in gen 2, replay opens 3, the recovered checkpoint seals it and opens 4)", rep.Gen)
		}
		gotTen, gotCat := fleetRenders(t, rec)
		if gotTen != wantTen || gotCat != wantCat {
			t.Fatalf("recovered state diverges after fence verification")
		}
	})

	t.Run("clean close verifies whole log", func(t *testing.T) {
		dir := t.TempDir()
		c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
			&WALOptions{Dir: dir, Sync: wal.SyncNone})
		driveCatalogSchedule(t, c, steps[:half], 0)
		wantTen, wantCat := fleetRenders(t, c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
			walFleetOptions(tenants, channels, 4, model, &WALOptions{Dir: dir, Sync: wal.SyncNone}))
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if !rep.CheckpointVerified {
			t.Fatalf("close manifest not verified: %+v", rep)
		}
		gotTen, gotCat := fleetRenders(t, rec)
		if gotTen != wantTen || gotCat != wantCat {
			t.Fatal("recovered state diverges from cleanly closed fleet")
		}
	})

	t.Run("tampered manifest fails loudly", func(t *testing.T) {
		dir := t.TempDir()
		c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
			&WALOptions{Dir: dir, Sync: wal.SyncNone})
		driveCatalogSchedule(t, c, steps[:half], 0)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ckpt-000001.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := strings.Replace(string(data), "\"tenants_render\": \"", "\"tenants_render\": \"X", 1)
		if tampered == string(data) {
			t.Fatal("tamper replacement did not apply")
		}
		if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
			walFleetOptions(tenants, channels, 2, model, &WALOptions{Dir: dir, Sync: wal.SyncNone}))
		if err == nil || !strings.Contains(err.Error(), "diverges") {
			t.Fatalf("tampered manifest accepted: %v", err)
		}
	})
}

// TestWALTornTail pins the crash signature end to end: a torn final
// line in a shard's newest segment is truncated and reported; corruption
// mid-log fails recovery loudly.
func TestWALTornTail(t *testing.T) {
	const tenants, channels, gateways, seed = 3, 10, 5, 9300
	steps := catalogScheduleFor(tenants, channels, 35)
	model := catalog.Isolated{}
	build := func(t *testing.T) string {
		dir := t.TempDir()
		c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
			&WALOptions{Dir: dir, Sync: wal.SyncBatch})
		driveCatalogSchedule(t, c, steps[:len(steps)/2], 0)
		// Crash (abandon). The segments are durable and clean.
		return dir
	}
	segFor := func(t *testing.T, dir, writer string) string {
		t.Helper()
		return filepath.Join(dir, "seg-000001-"+writer+".ndjson")
	}

	t.Run("torn tail tolerated and truncated", func(t *testing.T) {
		dir := build(t)
		seg := segFor(t, dir, "s0")
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"seq":999999,"type":"stream_arr`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
			walFleetOptions(tenants, channels, 2, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
		if err != nil {
			t.Fatalf("torn tail not tolerated: %v", err)
		}
		defer rec.Close()
		// Abandoned segments carry a preallocated zero tail, so every
		// writer's segment is truncated on recovery; the one with the
		// injected partial line must be among them.
		found := false
		for _, name := range rep.TruncatedSegments {
			if name == filepath.Base(seg) {
				found = true
			}
		}
		if !found {
			t.Fatalf("torn segment %s not truncated (truncated: %v)",
				filepath.Base(seg), rep.TruncatedSegments)
		}
	})

	t.Run("mid-log corruption fails recovery", func(t *testing.T) {
		dir := build(t)
		seg := segFor(t, dir, "s1")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		if len(lines) < 3 {
			t.Fatalf("segment too short to corrupt (%d lines)", len(lines))
		}
		lines[1] = "{corrupt}\n"
		if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
			walFleetOptions(tenants, channels, 2, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
		if err == nil || !strings.Contains(err.Error(), "mid-log") {
			t.Fatalf("mid-log corruption not rejected: %v", err)
		}
	})
}

// TestWALDanglingPendingDrain pins the two-plane repair: acquisitions
// a crash leaves in flight are drained through the normal logged
// settlement path, so a second recovery reproduces the repaired state
// exactly (the drain is itself in the log).
func TestWALDanglingPendingDrain(t *testing.T) {
	const tenants, channels, gateways, seed = 3, 10, 5, 9400
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	dir := t.TempDir()
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
		&WALOptions{Dir: dir, Sync: wal.SyncBatch})
	driveCatalogSchedule(t, c, catalogScheduleFor(tenants, channels, 37)[:40], 0)
	// Take provisional references that will never settle: the crash
	// window between a session's Acquire and its worker settlement.
	for _, st := range []struct{ tenant, stream int }{{0, 3}, {1, 3}, {2, 7}} {
		id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
		if _, err := c.catalog.Acquire(id, st.tenant); err != nil {
			t.Fatal(err)
		}
	}
	// The acquires are logged but only buffered (no worker ack followed
	// them); force them to disk as the crash image.
	if err := c.wlog.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Crash (abandon).
	rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
		walFleetOptions(tenants, channels, 2, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DanglingReleased != 3 {
		t.Fatalf("DanglingReleased = %d, want 3 (report %+v)", rep.DanglingReleased, rep)
	}
	tenRender, catRender := fleetRenders(t, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// Second recovery: the drain is in the log, so the repaired state
	// replays bit-identically and the "close" manifest verifies it.
	rec2, rep2, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
		walFleetOptions(tenants, channels, 4, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer rec2.Close()
	if rep2.DanglingReleased != 0 || !rep2.CheckpointVerified {
		t.Fatalf("second recovery report: %+v", rep2)
	}
	ten2, cat2 := fleetRenders(t, rec2)
	if ten2 != tenRender || cat2 != catRender {
		t.Fatal("second recovery does not reproduce the repaired state")
	}
}

// TestWALAutoCheckpoint drives enough traffic past CheckpointEvery that
// the maintenance goroutine rotates generations on its own.
func TestWALAutoCheckpoint(t *testing.T) {
	const tenants, channels, gateways, seed = 3, 12, 5, 9500
	dir := t.TempDir()
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, catalog.Isolated{},
		&WALOptions{Dir: dir, Sync: wal.SyncNone, CheckpointEvery: 50})
	steps := catalogScheduleFor(tenants, channels, 39)
	driveCatalogSchedule(t, c, steps, 0)
	wantTen, wantCat := fleetRenders(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	manifests := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ckpt-") {
			manifests++
		}
	}
	if manifests < 2 {
		t.Fatalf("got %d manifests, want at least an auto checkpoint plus the close", manifests)
	}
	rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
		walFleetOptions(tenants, channels, 2, catalog.Isolated{},
			&WALOptions{Dir: dir, Sync: wal.SyncNone, CheckpointEvery: 50}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rep.CheckpointVerified {
		t.Fatalf("recovery did not verify: %+v", rep)
	}
	gotTen, gotCat := fleetRenders(t, rec)
	if gotTen != wantTen || gotCat != wantCat {
		t.Fatal("recovered state diverges after auto checkpoints")
	}
}

// TestWALErrors pins the control-plane error taxonomy.
func TestWALErrors(t *testing.T) {
	t.Run("checkpoint without WAL", func(t *testing.T) {
		c, err := New(tenantInstances(t, 2, 8, 4, 9600), Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Checkpoint("x"); !errors.Is(err, ErrNoWAL) {
			t.Fatalf("Checkpoint without WAL: %v", err)
		}
		// Resharding needs no log: the tenants are handed over, not
		// rebuilt.
		want, _ := fleetRenders(t, c)
		if err := c.Reshard(2); err != nil {
			t.Fatalf("Reshard without WAL: %v", err)
		}
		if got, _ := fleetRenders(t, c); got != want {
			t.Fatalf("Reshard without WAL changed state:\n--- want\n%s\n--- got\n%s", want, got)
		}
	})
	t.Run("new on an existing log", func(t *testing.T) {
		dir := t.TempDir()
		c := walCatalogFleet(t, 2, 8, 4, 9600, 1, nil, &WALOptions{Dir: dir})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := New(tenantInstances(t, 2, 8, 4, 9600), Options{Shards: 1, WAL: &WALOptions{Dir: dir}})
		if err == nil || !strings.Contains(err.Error(), "use Recover") {
			t.Fatalf("New on a used WAL dir: %v", err)
		}
	})
	t.Run("recover without WAL options", func(t *testing.T) {
		if _, _, err := Recover(tenantInstances(t, 2, 8, 4, 9600), Options{Shards: 1}); !errors.Is(err, ErrNoWAL) {
			t.Fatalf("Recover without WAL: %v", err)
		}
	})
	t.Run("closed cluster", func(t *testing.T) {
		dir := t.TempDir()
		c := walCatalogFleet(t, 2, 8, 4, 9600, 1, nil, &WALOptions{Dir: dir})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint("x"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Checkpoint after Close: %v", err)
		}
		if err := c.Reshard(2); !errors.Is(err, ErrClosed) {
			t.Fatalf("Reshard after Close: %v", err)
		}
	})
}

// TestWALRefusesRemoteCatalog pins that a WAL needs the cluster's own
// registry: the WAL plane logs and replays the registry's operations
// through the in-process *catalog.Registry, so New and Recover refuse a
// remote catalog combined with a WAL.
func TestWALRefusesRemoteCatalog(t *testing.T) {
	opts := walFleetOptions(2, 8, 1, catalog.Isolated{}, &WALOptions{Dir: t.TempDir()})
	reg, err := catalog.NewRegistry(opts.Catalog.Streams, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	opts.Catalog.Remote = reg
	const want = "cannot be combined with a WAL"
	if _, err := New(tenantInstances(t, 2, 8, 4, 9600), opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("New with a remote catalog and a WAL: %v", err)
	}
	if _, _, err := Recover(tenantInstances(t, 2, 8, 4, 9600), opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover with a remote catalog and a WAL: %v", err)
	}
}

// TestWALCheckpointRacingTraffic races explicit checkpoints against
// in-flight batches and streamed catalog events (run under -race in
// CI), then crashes and verifies the recovered state matches the final
// quiesced snapshot exactly.
func TestWALCheckpointRacingTraffic(t *testing.T) {
	const tenants, channels, gateways, seed = 4, 12, 5, 9700
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	dir := t.TempDir()
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
		&WALOptions{Dir: dir, Sync: wal.SyncBatch})
	ctx := context.Background()
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				var evs []Event
				for s := 0; s < channels; s += 2 {
					evs = append(evs, Event{Type: EventStreamArrival,
						CatalogID: catalog.ID(fmt.Sprintf("s-%03d", s))})
				}
				if _, err := c.ApplyBatch(ctx, ti, evs); err != nil {
					t.Errorf("tenant %d batch: %v", ti, err)
					return
				}
				for s := 0; s < channels; s += 4 {
					if _, err := c.DepartCatalogStream(ctx, ti, catalog.ID(fmt.Sprintf("s-%03d", s))); err != nil {
						t.Errorf("tenant %d depart: %v", ti, err)
						return
					}
				}
			}
		}(ti)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := c.Checkpoint("race"); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	wantTen, wantCat := fleetRenders(t, c)
	// Crash (abandon) and recover: the final quiesced state was fully
	// acknowledged, so recovery must land exactly on it.
	rec, _, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
		walFleetOptions(tenants, channels, 4, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	gotTen, gotCat := fleetRenders(t, rec)
	if gotTen != wantTen || gotCat != wantCat {
		t.Fatal("recovered state diverges after checkpoint/traffic race")
	}
}

// TestWALStreamDisconnectReplay replays a disconnect-settlement
// sequence: a pipelined stream submits catalog offers and departs,
// the connection is dropped with results unread (the worker still
// settles every reference), and the recovered fleet must reproduce the
// post-disconnect state bit-identically. Run under -race in CI.
func TestWALStreamDisconnectReplay(t *testing.T) {
	const tenants, channels, gateways, seed = 3, 10, 5, 9800
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	dir := t.TempDir()
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
		&WALOptions{Dir: dir, Sync: wal.SyncBatch})
	ctx := context.Background()
	sc, err := c.OpenStream(StreamOptions{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for {
			if _, err := sc.Recv(ctx); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 3*channels; i++ {
		ti, s := i%tenants, i%channels
		ev := Event{Tenant: ti, Type: EventStreamArrival, CatalogID: catalog.ID(fmt.Sprintf("s-%03d", s))}
		if i%5 == 4 {
			ev.Type = EventStreamDeparture
		}
		if err := sc.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the connection mid-stream: unread results are discarded but
	// every enqueued event applies and settles.
	sc.Close()
	drained.Wait()
	wantTen, wantCat := fleetRenders(t, c)
	// Crash (abandon) and recover.
	rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
		walFleetOptions(tenants, channels, 1, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Reconciled != 0 {
		t.Fatalf("disconnect settlement left planes inconsistent: %+v", rep)
	}
	gotTen, gotCat := fleetRenders(t, rec)
	if gotTen != wantTen || gotCat != wantCat {
		t.Fatal("recovered state diverges after stream disconnect")
	}
}

// TestReshardPreservesState is the live-resharding acceptance check:
// growing 2→4 and shrinking 4→2 mid-workload must preserve per-tenant
// tables and catalog renders exactly (the shard-count-invariance
// contract, now exercised across a layout change on a live cluster),
// and the resharded fleet must keep serving and stay recoverable.
func TestReshardPreservesState(t *testing.T) {
	const tenants, channels, gateways, seed = 5, 12, 5, 9900
	for _, tc := range []struct{ from, to int }{{2, 4}, {4, 2}} {
		t.Run(fmt.Sprintf("%d_to_%d", tc.from, tc.to), func(t *testing.T) {
			model := catalog.SharedOrigin{ReplicationFraction: 0.25}
			steps := catalogScheduleFor(tenants, channels, 41)
			half := len(steps) / 2

			control := walCatalogFleet(t, tenants, channels, gateways, seed, tc.from, model, nil)
			defer control.Close()
			dir := t.TempDir()
			c := walCatalogFleet(t, tenants, channels, gateways, seed, tc.from, model,
				&WALOptions{Dir: dir, Sync: wal.SyncBatch})
			defer c.Close()

			driveCatalogSchedule(t, control, steps[:half], 0)
			driveCatalogSchedule(t, c, steps[:half], 0)
			if err := c.Reshard(tc.to); err != nil {
				t.Fatalf("Reshard(%d): %v", tc.to, err)
			}
			if got := c.NumShards(); got != tc.to {
				t.Fatalf("NumShards after reshard = %d, want %d", got, tc.to)
			}
			wantTen, wantCat := fleetRenders(t, control)
			gotTen, gotCat := fleetRenders(t, c)
			if gotTen != wantTen || gotCat != wantCat {
				t.Fatalf("reshard changed state:\n--- want\n%s%s\n--- got\n%s%s",
					wantTen, wantCat, gotTen, gotCat)
			}
			// The resharded fleet keeps serving identically.
			driveCatalogSchedule(t, control, steps[half:], 1)
			driveCatalogSchedule(t, c, steps[half:], 1)
			wantTen, wantCat = fleetRenders(t, control)
			gotTen, gotCat = fleetRenders(t, c)
			if gotTen != wantTen || gotCat != wantCat {
				t.Fatal("post-reshard traffic diverges")
			}
			// And its mixed-layout log recovers (replaying generations
			// written by both shard counts).
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
				walFleetOptions(tenants, channels, 3, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
			if err != nil {
				t.Fatalf("recovery across reshard generations: %v", err)
			}
			defer rec.Close()
			if !rep.CheckpointVerified {
				t.Fatalf("reshard log not verified: %+v", rep)
			}
			gotTen, gotCat = fleetRenders(t, rec)
			if gotTen != wantTen || gotCat != wantCat {
				t.Fatal("recovery across reshard generations diverges")
			}
		})
	}
}

// TestReshardThenCheckpointCatalogDurability pins the commit-group
// plumbing across a reshard: the new workers' committers must fsync
// the catalog-plane appender a later checkpoint rotation opened, not a
// stale capture of a sealed generation's. A stale capture makes
// Commit a silent no-op, so every catalog settlement acknowledged
// after a post-reshard checkpoint would evaporate in a crash. So:
// reshard, checkpoint, drive acknowledged catalog traffic, crash, and
// require recovery to land exactly on the last quiesced state with no
// cross-plane repair.
func TestReshardThenCheckpointCatalogDurability(t *testing.T) {
	const tenants, channels, gateways, seed = 4, 12, 5, 10200
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	steps := catalogScheduleFor(tenants, channels, 43)
	half := len(steps) / 2
	dir := t.TempDir()
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
		&WALOptions{Dir: dir, Sync: wal.SyncBatch})
	driveCatalogSchedule(t, c, steps[:half], 0)
	if err := c.Reshard(4); err != nil {
		t.Fatalf("Reshard(4): %v", err)
	}
	if _, err := c.Checkpoint("post-reshard"); err != nil {
		t.Fatalf("Checkpoint after reshard: %v", err)
	}
	// Every event past here is acknowledged under SyncBatch, so it must
	// be durable — on both planes — before its call returns.
	driveCatalogSchedule(t, c, steps[half:], 1)
	wantTen, wantCat := fleetRenders(t, c)
	// Crash (abandon without Close).
	rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
		walFleetOptions(tenants, channels, 3, model, &WALOptions{Dir: dir, Sync: wal.SyncBatch}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.DanglingReleased != 0 || rep.Reconciled != 0 {
		t.Fatalf("acknowledged post-checkpoint traffic needed repair (a plane lost records): %+v", rep)
	}
	if rep.FencesVerified != 2 {
		t.Fatalf("FencesVerified = %d, want 2 (reshard manifest + post-reshard checkpoint): %+v",
			rep.FencesVerified, rep)
	}
	gotTen, gotCat := fleetRenders(t, rec)
	if gotTen != wantTen || gotCat != wantCat {
		t.Fatalf("state acknowledged after a post-reshard checkpoint was lost:\n--- want\n%s%s\n--- got\n%s%s",
			wantTen, wantCat, gotTen, gotCat)
	}
}

// TestReshardConcurrentTraffic reshards while sessions are actively
// submitting (run under -race in CI): no call may fail, and the final
// state must match a control fleet that saw the same schedule.
func TestReshardConcurrentTraffic(t *testing.T) {
	const tenants, channels, gateways, seed = 4, 10, 5, 10000
	model := catalog.Isolated{}
	dir := t.TempDir()
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
		&WALOptions{Dir: dir, Sync: wal.SyncBatch})
	defer c.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for s := 0; s < channels; s++ {
					if _, err := c.OfferCatalogStream(ctx, ti, catalog.ID(fmt.Sprintf("s-%03d", s))); err != nil {
						t.Errorf("tenant %d offer during reshard: %v", ti, err)
						return
					}
				}
				for s := 0; s < channels; s += 3 {
					if _, err := c.DepartCatalogStream(ctx, ti, catalog.ID(fmt.Sprintf("s-%03d", s))); err != nil {
						t.Errorf("tenant %d depart during reshard: %v", ti, err)
						return
					}
				}
			}
		}(ti)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{4, 1, 3} {
			if err := c.Reshard(n); err != nil {
				t.Errorf("Reshard(%d): %v", n, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := c.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	// Per-tenant traffic was serial per tenant, so the per-tenant tables
	// must match a control fleet that ran the same per-tenant schedule
	// (tenant interleaving does not affect per-tenant state under
	// Isolated pricing).
	control := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model, nil)
	defer control.Close()
	for ti := 0; ti < tenants; ti++ {
		for round := 0; round < 4; round++ {
			for s := 0; s < channels; s++ {
				if _, err := control.OfferCatalogStream(ctx, ti, catalog.ID(fmt.Sprintf("s-%03d", s))); err != nil {
					t.Fatal(err)
				}
			}
			for s := 0; s < channels; s += 3 {
				if _, err := control.DepartCatalogStream(ctx, ti, catalog.ID(fmt.Sprintf("s-%03d", s))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	wantTen, _ := fleetRenders(t, control)
	gotTen, _ := fleetRenders(t, c)
	if gotTen != wantTen {
		t.Fatalf("concurrent reshard changed per-tenant state:\n--- want\n%s\n--- got\n%s", wantTen, gotTen)
	}
}

// TestReshardKeepsCallerPolicies pins that a reshard hands the tenant
// objects themselves to the new workers: a tenant built with a
// caller-supplied policy reshards 1→2→1 mid-schedule and ends on the
// table of a fleet that never changed layout.
func TestReshardKeepsCallerPolicies(t *testing.T) {
	const tenants, channels, gateways, seed = 2, 8, 4, 10100
	build := func(wopts *WALOptions) *Cluster {
		cfgs := tenantInstances(t, tenants, channels, gateways, seed)
		pol, err := headend.NewPolicyByName(cfgs[1].Instance, "threshold")
		if err != nil {
			t.Fatal(err)
		}
		cfgs[1].Policy = pol
		c, err := New(cfgs, Options{Shards: 1, BatchSize: 4, WAL: wopts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	control := build(nil)
	c := build(&WALOptions{Dir: t.TempDir()})
	ctx := context.Background()
	drive := func(c *Cluster, phase int) {
		t.Helper()
		for ti := 0; ti < tenants; ti++ {
			for s := 0; s < channels; s++ {
				if _, err := c.OfferStream(ctx, ti, (s+phase*3)%channels); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.DepartStream(ctx, ti, phase%channels); err != nil {
				t.Fatal(err)
			}
			if _, err := c.UserLeave(ctx, ti, phase%gateways); err != nil {
				t.Fatal(err)
			}
		}
	}
	for phase, shards := range []int{2, 1} {
		drive(control, phase)
		drive(c, phase)
		if err := c.Reshard(shards); err != nil {
			t.Fatalf("Reshard(%d) with a caller policy: %v", shards, err)
		}
	}
	drive(control, 2)
	drive(c, 2)
	want, _ := fleetRenders(t, control)
	got, _ := fleetRenders(t, c)
	if got != want {
		t.Fatalf("resharded caller-policy fleet diverges:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if !strings.Contains(got, "threshold") {
		t.Fatalf("tenant 1 lost its caller policy:\n%s", got)
	}
}

// TestReshardKeepsResolveCadence is TestReshardPreservesState with
// Options.ResolveEvery set: a tenant's churn count travels with it to
// its new worker, so churn-triggered re-solves land on the same events
// as in a fleet that never changed layout.
func TestReshardKeepsResolveCadence(t *testing.T) {
	const tenants, channels, gateways, seed = 5, 12, 5, 9900
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	steps := catalogScheduleFor(tenants, channels, 41)
	build := func(shards int, wopts *WALOptions) *Cluster {
		opts := walFleetOptions(tenants, channels, shards, model, wopts)
		opts.ResolveEvery = 3
		c, err := New(walTenantConfigs(t, tenants, channels, gateways, seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	control := build(2, nil)
	c := build(2, &WALOptions{Dir: t.TempDir(), Sync: wal.SyncBatch})
	for phase, to := range []int{4, 1, 3} {
		part := steps[phase*len(steps)/3 : (phase+1)*len(steps)/3]
		driveCatalogSchedule(t, control, part, phase)
		driveCatalogSchedule(t, c, part, phase)
		if err := c.Reshard(to); err != nil {
			t.Fatalf("Reshard(%d): %v", to, err)
		}
	}
	want, err := control.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want.Resolves == 0 {
		t.Fatal("schedule triggered no churn re-solves")
	}
	if got.Resolves != want.Resolves {
		t.Fatalf("fleet resolves = %d across reshards, want %d", got.Resolves, want.Resolves)
	}
	for i := range want.Tenants {
		if g, w := got.Tenants[i].Resolves, want.Tenants[i].Resolves; g != w {
			t.Errorf("tenant %d resolves = %d across reshards, want %d", i, g, w)
		}
	}
	if got.RenderTenants() != want.RenderTenants() {
		t.Fatalf("reshard changed state:\n--- want\n%s\n--- got\n%s", want.RenderTenants(), got.RenderTenants())
	}
}

// TestReshardCostIndependentOfHistory pins the cost of a reshard at one
// barrier plus one log rotation: the bytes one Reshard allocates after
// n logged events and after 4n stay under a fixed bound and within 1 MB
// of each other. A reshard that read the log back would grow with it
// (tens of MB at these lengths).
func TestReshardCostIndependentOfHistory(t *testing.T) {
	const tenants, channels, gateways, seed, n = 4, 12, 5, 10300, 10000
	const bound = 4 << 20
	measure := func(events int) uint64 {
		t.Helper()
		c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, nil,
			&WALOptions{Dir: t.TempDir(), Sync: wal.SyncNone})
		defer c.Close()
		for i := 0; i < events; i++ {
			ev := Event{Tenant: i % tenants, Type: EventStreamArrival, Stream: (i / tenants) % channels}
			if (i/(tenants*channels))%2 == 1 {
				ev.Type = EventStreamDeparture
			}
			if err := c.post(ev); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.Reshard(4); err != nil {
			t.Fatalf("Reshard(4): %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := measure(n), measure(4*n)
	t.Logf("Reshard allocated %d B after %d events, %d B after %d", short, n, long, 4*n)
	if short > bound || long > bound {
		t.Fatalf("Reshard allocated %d B after %d events and %d B after %d, want at most %d",
			short, n, long, 4*n, bound)
	}
	if diff := max(short, long) - min(short, long); diff > 1<<20 {
		t.Fatalf("Reshard cost grows with history: %d B after %d events, %d B after %d", short, n, long, 4*n)
	}
}
