// Cluster-level fault drills live in an external test package: chaos
// itself must stay importable from wal and cluster test code, so it
// never imports them — but its faults are only meaningful threaded
// under a real fleet, which is what these tests do.
package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/generator"
	"repro/internal/httpserve"
	"repro/internal/wal"
)

func faultFleet(t *testing.T, shards int, fs wal.FS) (*cluster.Cluster, string) {
	t.Helper()
	const tenants, channels = 4, 8
	cfgs := make([]cluster.TenantConfig, tenants)
	for i := range cfgs {
		in, err := generator.CableTV{Channels: channels, Gateways: 3, Seed: 900 + int64(i), EgressFraction: 0.25}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cluster.TenantConfig{Instance: in}
	}
	dir := t.TempDir()
	c, err := cluster.New(cfgs, cluster.Options{
		Shards: shards, BatchSize: 4,
		Catalog: &cluster.CatalogOptions{
			Streams: catalog.IdentityBindings(tenants, channels, func(s int) catalog.ID {
				return catalog.ID(fmt.Sprintf("ch-%03d", s))
			}),
			CostModel: catalog.Isolated{},
		},
		WAL: &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch, FS: fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, dir
}

// TestLatchedFsyncFailsFast pins the appender's latched-error contract
// end to end: after one injected fsync failure under group commit, the
// in-flight submission is refused with ErrNotDurable (no ack rides past
// a failed sync), every subsequent submission fails fast, and recovery
// from the abandoned log renders bit-identical to a control fleet that
// applied only what the doomed fleet acked — give or take the one
// in-flight event whose bytes reached the file before its sync lied.
func TestLatchedFsyncFailsFast(t *testing.T) {
	// FailSyncAt counts from file open, and the open-time preallocation
	// syncs once — so 8 means the 7th commit-path sync fails.
	const failAt = 8
	doomed, dir := faultFleet(t, 1,
		chaos.NewFS(nil, chaos.FileFault{Match: "-s0.", FailSyncAt: failAt}))

	ctx := context.Background()
	acked := 0
	var firstErr error
	for i := 0; i < 256; i++ {
		_, err := doomed.OfferStream(ctx, i%4, i%8)
		if err != nil {
			firstErr = err
			break
		}
		acked++
	}
	if firstErr == nil {
		t.Fatalf("fsync fault never fired over 256 events")
	}
	if !errors.Is(firstErr, cluster.ErrNotDurable) {
		t.Fatalf("first failure = %v, want ErrNotDurable", firstErr)
	}

	// Fail fast: the latch must refuse everything after the first
	// failure — an ack here would be a durability lie.
	for i := 0; i < 8; i++ {
		if _, err := doomed.OfferStream(ctx, i%4, i%8); err == nil {
			t.Fatalf("submission %d after latched fsync error was acked", i)
		} else if !errors.Is(err, cluster.ErrNotDurable) {
			t.Fatalf("post-latch failure = %v, want ErrNotDurable", err)
		}
	}
	// Abandoned: the latched fleet has no clean shutdown story.

	// Control applies exactly the acked prefix on a clean fleet.
	control, _ := faultFleet(t, 2, nil)
	for i := 0; i < acked; i++ {
		if _, err := control.OfferStream(ctx, i%4, i%8); err != nil {
			t.Fatal(err)
		}
	}
	wantK := renderAll(t, control)
	if _, err := control.OfferStream(ctx, acked%4, acked%8); err != nil {
		t.Fatal(err)
	}
	wantK1 := renderAll(t, control)
	if err := control.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, rep, err := cluster.Recover(tenantsLike(t), cluster.Options{
		Shards: 2, BatchSize: 4,
		Catalog: &cluster.CatalogOptions{
			Streams: catalog.IdentityBindings(4, 8, func(s int) catalog.ID {
				return catalog.ID(fmt.Sprintf("ch-%03d", s))
			}),
			CostModel: catalog.Isolated{},
		},
		WAL: &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch}, // clean FS: recovery must not re-fault
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rep.Events < acked {
		t.Fatalf("recovery replayed %d events, acked %d — an acked event is missing", rep.Events, acked)
	}
	got := renderAll(t, recovered)
	if got != wantK && got != wantK1 {
		t.Fatalf("recovered state matches neither the acked prefix nor prefix+1:\n%s", got)
	}
}

// TestFailedOpenClosesEverySegment fails the open-time fill of one
// segment — and of two — in a fresh 4-shard fleet with a catalog
// plane, and requires cluster.New to return the first failing writer's
// error in writer order, with every segment file it opened closed.
func TestFailedOpenClosesEverySegment(t *testing.T) {
	for _, tc := range []struct {
		faults []chaos.FileFault
		writer string
	}{
		{[]chaos.FileFault{{Match: "-s3.", FailSyncAt: 1}}, "s3"},
		{[]chaos.FileFault{{Match: "-catalog.", FailSyncAt: 1}, {Match: "-s1.", FailSyncAt: 1}}, "s1"},
	} {
		count := &countingFS{inner: wal.OSFS{}}
		_, err := cluster.New(tenantsLike(t), cluster.Options{
			Shards: 4,
			Catalog: &cluster.CatalogOptions{
				Streams: catalog.IdentityBindings(4, 8, func(s int) catalog.ID {
					return catalog.ID(fmt.Sprintf("ch-%03d", s))
				}),
				CostModel: catalog.Isolated{},
			},
			WAL: &cluster.WALOptions{Dir: t.TempDir(), Sync: wal.SyncBatch, FS: chaos.NewFS(count, tc.faults...)},
		})
		if !errors.Is(err, chaos.ErrInjected) || !strings.HasPrefix(err.Error(), "wal: "+tc.writer+": ") {
			t.Fatalf("cluster.New = %v, want writer %s's injected fault", err, tc.writer)
		}
		opened, closed := count.counts()
		if opened == 0 || closed != opened {
			t.Fatalf("writer %s failing: %d segment files opened, %d closed", tc.writer, opened, closed)
		}
	}
}

// countingFS counts the segment files opened through it and how many
// of them were closed.
type countingFS struct {
	inner wal.FS

	mu             sync.Mutex
	opened, closed int
}

func (fs *countingFS) OpenSegment(path string) (wal.File, error) {
	f, err := fs.inner.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.opened++
	fs.mu.Unlock()
	return &countedFile{File: f, fs: fs}, nil
}

func (fs *countingFS) counts() (opened, closed int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.opened, fs.closed
}

type countedFile struct {
	wal.File
	fs *countingFS
}

func (f *countedFile) Close() error {
	f.fs.mu.Lock()
	f.fs.closed++
	f.fs.mu.Unlock()
	return f.File.Close()
}

// TestLatchedFsyncFailsEverySurface pins the latched-error contract on
// every submission surface, the catalog ones included: once the
// appender has latched an fsync failure, a catalog offer or departure
// reports ErrNotDurable whether it arrives as a session call, on a
// stream, in a batch, or over POST /events (as a 503) — never an ack
// the disk did not back.
func TestLatchedFsyncFailsEverySurface(t *testing.T) {
	doomed, _ := faultFleet(t, 1,
		chaos.NewFS(nil, chaos.FileFault{Match: "-s0.", FailSyncAt: 8}))
	ctx := context.Background()
	for i := 0; ; i++ {
		if i == 256 {
			t.Fatal("fsync fault never fired over 256 events")
		}
		if _, err := doomed.OfferStream(ctx, i%4, i%8); err != nil {
			if !errors.Is(err, cluster.ErrNotDurable) {
				t.Fatalf("first failure = %v, want ErrNotDurable", err)
			}
			break
		}
	}
	notDurable := func(surface string, err error) {
		t.Helper()
		if !errors.Is(err, cluster.ErrNotDurable) {
			t.Errorf("%s after the latch: err = %v, want ErrNotDurable", surface, err)
		}
	}

	_, err := doomed.OfferCatalogStream(ctx, 1, "ch-001")
	notDurable("OfferCatalogStream", err)
	_, err = doomed.DepartCatalogStream(ctx, 1, "ch-001")
	notDurable("DepartCatalogStream", err)

	sc, err := doomed.OpenStream(cluster.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Submit(ctx, cluster.Event{Tenant: 2, Type: cluster.EventStreamArrival, CatalogID: "ch-002"}); err != nil {
		t.Fatal(err)
	}
	sres, err := sc.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	notDurable("stream catalog offer", sres.Err)

	bres, err := doomed.ApplyBatch(ctx, 3, []cluster.Event{{Type: cluster.EventStreamArrival, CatalogID: "ch-003"}})
	if err != nil {
		t.Fatal(err)
	}
	notDurable("ApplyBatch catalog offer", bres[0].Err)

	srv := httptest.NewServer(httpserve.NewHandler(doomed))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/tenants/0/events", "application/json",
		strings.NewReader(`{"type":"catalog-offer","catalog_id":"ch-004"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "not durable") {
		t.Errorf("POST /events catalog offer after the latch: %d %s, want 503 not durable", resp.StatusCode, body)
	}
}

func tenantsLike(t *testing.T) []cluster.TenantConfig {
	t.Helper()
	cfgs := make([]cluster.TenantConfig, 4)
	for i := range cfgs {
		in, err := generator.CableTV{Channels: 8, Gateways: 3, Seed: 900 + int64(i), EgressFraction: 0.25}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cluster.TenantConfig{Instance: in}
	}
	return cfgs
}

func renderAll(t *testing.T, c *cluster.Cluster) string {
	t.Helper()
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := fs.RenderTenants()
	if fs.Catalog != nil {
		out += fs.Catalog.Render()
	}
	return out
}

// TestTornTailTruncatedOnRecovery drives a chaos torn-tail through the
// full cluster recovery path (the wal-level test covers the reader; this
// pins that a fleet still comes back from a torn final record). The
// fault models lying hardware: every ack succeeds, but no byte past the
// tear offset reaches the platter.
func TestTornTailTruncatedOnRecovery(t *testing.T) {
	doomed, dir := faultFleet(t, 1,
		chaos.NewFS(nil, chaos.FileFault{Match: "-s0.", TornTailAt: 1501}))
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if _, err := doomed.OfferStream(ctx, i%4, i%8); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon mid-flight: the swallowed tail models the crash.

	recovered, rep, err := cluster.Recover(tenantsLike(t), cluster.Options{
		Shards: 4, BatchSize: 4,
		Catalog: &cluster.CatalogOptions{
			Streams: catalog.IdentityBindings(4, 8, func(s int) catalog.ID {
				return catalog.ID(fmt.Sprintf("ch-%03d", s))
			}),
			CostModel: catalog.Isolated{},
		},
		WAL: &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if len(rep.TruncatedSegments) == 0 {
		t.Fatalf("torn tail was not detected: %+v", rep)
	}
	if rep.Events == 0 {
		t.Fatalf("recovery lost the whole log to one torn record")
	}
	if rep.Events >= 32 {
		t.Fatalf("replayed %d events past a tail torn at byte 1501 — the tear swallowed nothing", rep.Events)
	}
}
