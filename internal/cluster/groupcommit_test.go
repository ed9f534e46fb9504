package cluster

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// slowSyncFS opens real segment files whose Datasync counts each call
// and then sleeps like a device flush, so how many events share one
// sync does not depend on how fast the host's disk is.
type slowSyncFS struct {
	syncs atomic.Int64
	// delay is the simulated flush; zero means 2 ms.
	delay time.Duration
}

func (fs *slowSyncFS) OpenSegment(path string) (wal.File, error) {
	f, err := wal.OSFS{}.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, fs: fs}, nil
}

type slowSyncFile struct {
	wal.File
	fs *slowSyncFS
}

func (f *slowSyncFile) Datasync() error {
	f.fs.syncs.Add(1)
	delay := f.fs.delay
	if delay == 0 {
		delay = 2 * time.Millisecond
	}
	time.Sleep(delay)
	return f.File.Datasync()
}

// TestGroupCommitAmortizesDatasync pins group commit under SyncBatch:
// a pipelined stream's deferred acks are released in groups, and
// groups that queue behind an in-flight fsync share the next one, so
// one datasync covers many events. Handing each deferred ack to the
// committer on its own drops the ratio to about one group per device
// flush (~16 events here).
func TestGroupCommitAmortizesDatasync(t *testing.T) {
	const minEventsPerSync = 64
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fs := &slowSyncFS{}
			c, err := New(tenantInstances(t, 8, 40, 10, 200), Options{
				Shards: shards,
				WAL:    &WALOptions{Dir: t.TempDir(), Sync: wal.SyncBatch, FS: fs},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			w := Workload{Seed: 200, Rounds: 6, DepartEvery: 3}
			perTenant := make([][]Event, c.NumTenants())
			for ti := range perTenant {
				perTenant[ti] = w.Events(c, ti)
			}
			events := interleaveTenants(perTenant)

			sc, err := c.OpenStream(StreamOptions{Window: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			ctx := context.Background()
			for _, ev := range events {
				if err := sc.Submit(ctx, ev); err != nil {
					t.Fatal(err)
				}
			}
			sc.CloseSend()
			got := 0
			for {
				res, err := sc.Recv(ctx)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Err != nil {
					t.Fatalf("event %d: %v", res.Seq, res.Err)
				}
				got++
			}
			if got != len(events) {
				t.Fatalf("drained %d of %d results", got, len(events))
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			syncs := fs.syncs.Load()
			if syncs == 0 {
				t.Fatal("no datasync under SyncBatch")
			}
			per := float64(len(events)) / float64(syncs)
			t.Logf("%d events, %d datasyncs: %.1f events per datasync", len(events), syncs, per)
			if per < minEventsPerSync {
				t.Fatalf("%.1f events per datasync (%d events, %d syncs), want at least %d",
					per, len(events), syncs, minEventsPerSync)
			}
		})
	}
}

// TestGroupCommitAckMemoryFlat pins one ack group in flight per shard:
// a warm stream's pass over the group-commit rig allocates nothing per
// event, and slower datasyncs — which leave more events waiting behind
// each one — do not make it allocate more.
func TestGroupCommitAckMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	// The cycle offers eight streams to every tenant and departs them
	// again, so each pass starts from the state the last one left.
	var cycle []Event
	for _, typ := range []EventType{EventStreamArrival, EventStreamDeparture} {
		for s := 0; s < 8; s++ {
			for ti := 0; ti < 8; ti++ {
				cycle = append(cycle, Event{Tenant: ti, Type: typ, Stream: s})
			}
		}
	}
	const window, cycles = 4096, 16
	measure := func(delay time.Duration) (mallocs, bytes uint64) {
		c, err := New(tenantInstances(t, 8, 40, 10, 200), Options{
			Shards: 1,
			WAL:    &WALOptions{Dir: t.TempDir(), Sync: wal.SyncBatch, FS: &slowSyncFS{delay: delay}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sc, err := c.OpenStream(StreamOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		ctx := context.Background()
		recv := func(n int) {
			for i := 0; i < n; i++ {
				if res, err := sc.Recv(ctx); err != nil || res.Err != nil {
					t.Fatalf("recv = %+v, %v", res, err)
				}
			}
		}
		// Fill the window once, so no pass below carves an entry.
		for i := 0; i < window; i++ {
			if err := sc.Submit(ctx, cycle[i%len(cycle)]); err != nil {
				t.Fatal(err)
			}
		}
		recv(window)
		pass := func() {
			done := make(chan error, 1)
			go func() {
				for i := 0; i < cycles*len(cycle); i++ {
					if err := sc.Submit(ctx, cycle[i%len(cycle)]); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			recv(cycles * len(cycle))
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		pass()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	events := cycles * len(cycle)
	m2, b2 := measure(2 * time.Millisecond)
	m8, b8 := measure(8 * time.Millisecond)
	t.Logf("%d events per pass: %d allocations, %d B at 2 ms; %d allocations, %d B at 8 ms", events, m2, b2, m8, b8)
	// The tenants' admitted subscriber lists take a fresh shared array
	// every few hundred admissions (buf.Lists): about 10 KiB a pass. A
	// fresh ack slice per group would add tens of KiB per group.
	if m2 > 64 || m8 > 64 || b2 > 32<<10 || b8 > 32<<10 {
		t.Fatalf("a warm pass of %d events allocates %d times (%d B) at 2 ms and %d times (%d B) at 8 ms, want at most 64 times and 32 KiB",
			events, m2, b2, m8, b8)
	}
	if b8 > b2+8<<10 {
		t.Fatalf("a warm pass allocates %d B at 8 ms against %d B at 2 ms: ack memory grows with the datasync delay", b8, b2)
	}
}

// gateSyncFS opens real segment files whose Datasync, once armed,
// reports each call on entered and then waits until release is closed.
type gateSyncFS struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (fs *gateSyncFS) OpenSegment(path string) (wal.File, error) {
	f, err := wal.OSFS{}.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	return &gateSyncFile{File: f, fs: fs}, nil
}

type gateSyncFile struct {
	wal.File
	fs *gateSyncFS
}

func (f *gateSyncFile) Datasync() error {
	if f.fs.armed.Load() {
		select {
		case f.fs.entered <- struct{}{}:
		default:
		}
		<-f.fs.release
	}
	return f.File.Datasync()
}

// TestGroupCommitLoneEventAcked pins the worker's wake-up on an idle
// committer: an event applied while the previous group's datasync is
// in flight waits in the next group, and that group is handed off once
// the committer goes idle — with no further traffic and no barrier.
func TestGroupCommitLoneEventAcked(t *testing.T) {
	fs := &gateSyncFS{entered: make(chan struct{}, 1), release: make(chan struct{})}
	pol := &blockingPolicy{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	close(pol.gate) // the policy only reports each arrival
	cfgs := tenantInstances(t, 1, 8, 3, 906)
	cfgs[0].Policy = pol
	c, err := New(cfgs, Options{Shards: 1, WAL: &WALOptions{Dir: t.TempDir(), Sync: wal.SyncBatch, FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc, err := c.OpenStream(StreamOptions{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wait := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	fs.armed.Store(true)
	if err := sc.Submit(ctx, Event{Tenant: 0, Type: EventStreamArrival, Stream: 0}); err != nil {
		t.Fatal(err)
	}
	wait(pol.entered, "the first event to apply")
	wait(fs.entered, "the first group's datasync")
	if err := sc.Submit(ctx, Event{Tenant: 0, Type: EventStreamArrival, Stream: 1}); err != nil {
		t.Fatal(err)
	}
	wait(pol.entered, "the lone event to apply")
	close(fs.release)
	for i := 0; i < 2; i++ {
		res, err := sc.Recv(ctx)
		if err != nil {
			t.Fatalf("event %d was never acked: %v", i, err)
		}
		if res.Seq != i || res.Err != nil {
			t.Fatalf("event %d: %+v", i, res)
		}
	}
}

// TestGroupCommitBatchSpansGroups runs one ApplyBatch longer than a
// commit group under SyncBatch: its entries join the pending group one
// by one, so the batch is acknowledged over several group commits. Every
// result must come back without error, and recovering the log must
// render the same tenant table.
func TestGroupCommitBatchSpansGroups(t *testing.T) {
	const events = 5000
	if events <= commitGroupBound {
		t.Fatalf("the batch must be longer than a commit group (%d events)", commitGroupBound)
	}
	cfgs := func() []TenantConfig { return tenantInstances(t, 1, 40, 10, 207) }
	dir := t.TempDir()
	fs := &slowSyncFS{}
	opts := Options{Shards: 1, WAL: &WALOptions{Dir: dir, Sync: wal.SyncBatch, FS: fs}}
	c, err := New(cfgs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batch := make([]Event, events)
	for i := range batch {
		switch i % 5 {
		case 0, 1, 2:
			batch[i] = Event{Type: EventStreamArrival, Stream: (i * 7) % 40}
		case 3:
			batch[i] = Event{Type: EventStreamDeparture, Stream: (i * 3) % 40}
		default:
			batch[i] = Event{Type: EventUserLeave + EventType(i/5%2), User: i / 10 % 10}
		}
	}
	out, err := c.ApplyBatch(context.Background(), 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != events {
		t.Fatalf("%d results, want %d", len(out), events)
	}
	for i, res := range out {
		if res.Err != nil || res.Type != batch[i].Type {
			t.Fatalf("result %d: %+v", i, res)
		}
	}
	want, _ := fleetRenders(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d events, %d datasyncs", events, fs.syncs.Load())
	opts.WAL.FS = nil
	rec, _, err := Recover(cfgs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got, _ := fleetRenders(t, rec); got != want {
		t.Fatalf("recovered tenant table diverges:\n--- want\n%s\n--- got\n%s", want, got)
	}
}
