package chaos

import (
	"testing"

	"repro/internal/wal"
)

// FuzzFaultSchedule drives a WAL appender through a fuzz-derived fault
// schedule — latched fsync errors, torn tails, short writes, arbitrary
// flush/commit cadence — abandons the log as a crash, and asserts the
// recovery contract: ReadAll() never panics, never errors on a
// single-writer log (every injected fault leaves at worst a legal torn
// tail), and the surviving records are always a contiguous seq prefix
// of what was appended. A second read after truncation must be clean.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 50, 3, 2})    // fault-free baseline
	f.Add([]byte{2, 0, 0, 0, 80, 0, 1})    // fsync fails on first commit
	f.Add([]byte{0, 100, 0, 0, 40, 2, 0})  // torn tail at byte 100
	f.Add([]byte{0, 0, 0, 3, 120, 1, 4})   // short write mid-stream
	f.Add([]byte{3, 200, 1, 2, 199, 7, 7}) // everything at once
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		fault := FileFault{
			FailSyncAt:   int(data[0] % 4),
			TornTailAt:   int64(data[1])<<3 | int64(data[2]%8),
			ShortWriteAt: int(data[3] % 4),
		}
		n := int(data[4])%200 + 1
		flushEvery := int(data[5] % 8)
		commitEvery := int(data[6] % 8)

		dir := t.TempDir()
		l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch, FS: NewFS(nil, fault)})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := l.Begin([]string{"s0"}); err != nil {
			return // FailSyncAt 1 fails the open-time prealloc sync: legal
		}
		a := l.Appender("s0")
		for i := 1; i <= n; i++ {
			_ = a.Append(&wal.Record{Seq: uint64(i), Type: wal.TypeResolve, Tenant: 1, Stream: i})
			if flushEvery > 0 && i%flushEvery == 0 {
				_ = a.Flush()
			}
			if commitEvery > 0 && i%commitEvery == 0 {
				_ = a.Commit()
			}
		}
		_ = a.Flush()
		// Abandon l without Close: the crash. Recover fresh.
		l2, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		rep, err := l2.ReadAll()
		if err != nil {
			t.Fatalf("recovery read failed under fault %+v: %v", fault, err)
		}
		if len(rep.Records) > n {
			t.Fatalf("recovered %d records, appended only %d", len(rep.Records), n)
		}
		for i, r := range rep.Records {
			if r.Seq != uint64(i+1) {
				t.Fatalf("recovered record %d has seq %d: not a contiguous prefix (fault %+v)", i, r.Seq, fault)
			}
			if r.Stream != int(r.Seq) {
				t.Fatalf("recovered record seq %d has corrupt payload stream=%d", r.Seq, r.Stream)
			}
		}
		// Truncation is physical: a second recovery read is clean.
		l3, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch})
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		rep2, err := l3.ReadAll()
		if err != nil {
			t.Fatalf("second recovery read: %v", err)
		}
		if len(rep2.Truncated) != 0 {
			t.Fatalf("second recovery still truncating: %v", rep2.Truncated)
		}
		if len(rep2.Records) != len(rep.Records) {
			t.Fatalf("second recovery read %d records, first read %d", len(rep2.Records), len(rep.Records))
		}
	})
}
