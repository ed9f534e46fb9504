package cluster

import (
	"context"
	"fmt"
	"io"
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
	time.Sleep(2 * time.Millisecond)
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
