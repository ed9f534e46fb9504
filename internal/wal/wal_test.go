package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Type: TypeStreamArrival, Tenant: 3, Stream: 17},
		{Seq: 2, Type: TypeStreamDeparture, Tenant: 0, Stream: 0},
		{Seq: 3, Type: TypeUserLeave, Tenant: 1, User: 9},
		{Seq: 4, Type: TypeUserJoin, User: 2},
		{Seq: 5, Type: TypeResolve, Tenant: 2, Install: true},
		{Seq: 6, Type: TypeStreamArrival, Tenant: 1, Stream: 4,
			Catalog: "news/\"intl\"\n", Scale: 0.3333333333333333, Origin: true},
		{Seq: 7, Type: TypeCatalogAcquire, Tenant: 5, Catalog: "sports", Scale: 1},
		{Seq: 8, Type: TypeCatalogSettle, Tenant: 5, Catalog: "sports",
			Op: OpCommit, Full: 12.75, Charged: 4.25, Origin: true},
		{Seq: 9, Type: TypeCatalogSettle, Op: OpReleasePending, Catalog: "x"},
		{Seq: math.MaxUint64, Type: TypeResolve},
	}
	var buf []byte
	for i := range recs {
		buf = AppendRecord(buf[:0], &recs[i])
		if buf[len(buf)-1] != '\n' {
			t.Fatalf("record %d: not newline-terminated: %q", i, buf)
		}
		got, err := DecodeRecord(buf[:len(buf)-1])
		if err != nil {
			t.Fatalf("record %d: decode: %v (line %q)", i, err, buf)
		}
		if got != recs[i] {
			t.Fatalf("record %d: round trip mismatch:\n got %+v\nwant %+v\nline %q", i, got, recs[i], buf)
		}
	}
}

func TestDecodeRecordStrict(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"unknown field", `{"type":"resolve","bogus":1}`},
		{"trailing data", `{"type":"resolve"}{"type":"resolve"}`},
		{"missing type", `{"seq":4}`},
		{"not json", `seq=4`},
		{"empty", ``},
	}
	for _, tc := range cases {
		if _, err := DecodeRecord([]byte(tc.line)); err == nil {
			t.Errorf("%s: DecodeRecord(%q) succeeded, want error", tc.name, tc.line)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"none", SyncNone}, {"interval", SyncInterval}, {"batch", SyncBatch}, {"", SyncBatch}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("SyncPolicy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("always"); err == nil {
		t.Error("ParseSyncPolicy(\"always\") succeeded, want error")
	}
}

// TestLogAppendReadAll pins the merge contract: records written by
// several writers across several generations come back as one sequence
// in Seq order, with manifests in generation order.
func TestLogAppendReadAll(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Empty() {
		t.Fatal("fresh directory not Empty")
	}
	names := ShardWriters(2, true)
	if err := l.Begin(names); err != nil {
		t.Fatal(err)
	}
	// Interleave across writers: seq order disagrees with per-file order.
	app0, app1, cat := l.Appender(ShardWriter(0)), l.Appender(ShardWriter(1)), l.Appender(CatalogWriter)
	for _, w := range []struct {
		app *Appender
		seq uint64
	}{{app0, 2}, {app1, 1}, {cat, 3}, {app0, 5}, {app1, 4}} {
		if err := w.app.Append(&Record{Seq: w.seq, Type: TypeResolve, Tenant: int(w.seq)}); err != nil {
			t.Fatal(err)
		}
	}
	m := Manifest{Seq: 5, Shards: 2, Tenants: 6, Reason: "checkpoint", TenantsRender: "state-at-5"}
	if err := l.Rotate(&m, names); err != nil {
		t.Fatal(err)
	}
	if m.Gen != 1 {
		t.Fatalf("first rotation sealed gen %d, want 1", m.Gen)
	}
	if err := l.Appender(ShardWriter(1)).Append(&Record{Seq: 6, Type: TypeResolve, Tenant: 6}); err != nil {
		t.Fatal(err)
	}
	closing := Manifest{Seq: 6, Shards: 2, Tenants: 7, Reason: "close", TenantsRender: "state-at-6"}
	if err := l.Close(&closing); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Empty() {
		t.Fatal("reopened log reports Empty")
	}
	rep, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxSeq != 6 || len(rep.Records) != 6 {
		t.Fatalf("got MaxSeq %d, %d records; want 6, 6", rep.MaxSeq, len(rep.Records))
	}
	for i, r := range rep.Records {
		if r.Seq != uint64(i+1) || r.Tenant != i+1 {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
	if len(rep.Manifests) != 2 {
		t.Fatalf("got %d manifests, want 2", len(rep.Manifests))
	}
	if got := rep.LastManifest(); got.Gen != 2 || got.Seq != 6 || got.Reason != "close" || got.TenantsRender != "state-at-6" {
		t.Fatalf("last manifest: %+v", got)
	}
	if rep.Manifests[0].TenantsRender != "state-at-5" {
		t.Fatalf("first manifest render: %+v", rep.Manifests[0])
	}
	if len(rep.Truncated) != 0 {
		t.Fatalf("clean log reported truncations: %v", rep.Truncated)
	}
	// A new generation continues after the highest on disk.
	if err := l2.Begin(ShardWriters(1, false)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000003-s0.ndjson")); err != nil {
		t.Fatalf("third generation segment missing: %v", err)
	}
}

// TestTornTail pins the crash-signature rules: an unterminated final
// line of a writer's newest segment is tolerated (and truncated);
// everything else malformed is a hard error.
func TestTornTail(t *testing.T) {
	write := func(t *testing.T, dir, name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	line1 := `{"seq":1,"type":"resolve"}` + "\n"
	line2 := `{"seq":2,"type":"resolve"}` + "\n"

	t.Run("torn tail truncated on recovery", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "seg-000001-s0.ndjson", line1+`{"seq":2,"ty`)
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := l.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Records) != 1 || rep.MaxSeq != 1 {
			t.Fatalf("got %d records max %d, want the valid prefix only", len(rep.Records), rep.MaxSeq)
		}
		if got := rep.Truncated["seg-000001-s0.ndjson"]; got != int64(len(line1)) {
			t.Fatalf("truncated at %d, want %d", got, len(line1))
		}
		data, err := os.ReadFile(filepath.Join(dir, "seg-000001-s0.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != line1 {
			t.Fatalf("file not truncated: %q", data)
		}
	})
	t.Run("torn decodable tail is still torn", func(t *testing.T) {
		// The newline itself was lost mid-write: the line decodes but the
		// write was not complete, so it is truncated like any torn tail.
		dir := t.TempDir()
		write(t, dir, "seg-000001-s0.ndjson", line1+`{"seq":2,"type":"resolve"}`)
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := l.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Records) != 1 {
			t.Fatalf("got %d records, want 1", len(rep.Records))
		}
	})
	t.Run("malformed mid-log is a hard error", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "seg-000001-s0.ndjson", line1+"garbage\n"+line2)
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.ReadAll(); err == nil || !strings.Contains(err.Error(), "mid-log") {
			t.Fatalf("mid-log corruption not rejected: %v", err)
		}
	})
	t.Run("terminated malformed final line is a hard error", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "seg-000001-s0.ndjson", line1+"garbage\n")
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.ReadAll(); err == nil || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("terminated malformed final line not rejected: %v", err)
		}
	})
	t.Run("torn tail in sealed segment is a hard error", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "seg-000001-s0.ndjson", line1+`{"seq":2,"ty`)
		write(t, dir, "seg-000002-s0.ndjson", line2)
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.ReadAll(); err == nil || !strings.Contains(err.Error(), "sealed") {
			t.Fatalf("torn tail in sealed segment not rejected: %v", err)
		}
	})
	t.Run("unrecognized segment name is a hard error", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "seg-abc.ndjson", line1)
		if _, err := Open(Options{Dir: dir}); err == nil {
			t.Fatal("bad segment file name not rejected")
		}
	})
}

// TestSyncPolicies exercises each policy's durability point end to end
// (fsync effects are not observable in-process; this pins the flush
// plumbing and that Commit is a no-op off SyncBatch).
func TestSyncPolicies(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncNone, SyncInterval, SyncBatch} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Sync: sync, SyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Begin(ShardWriters(1, false)); err != nil {
				t.Fatal(err)
			}
			app := l.Appender(ShardWriter(0))
			if err := app.Append(&Record{Seq: 1, Type: TypeResolve}); err != nil {
				t.Fatal(err)
			}
			if err := app.Commit(); err != nil {
				t.Fatal(err)
			}
			if sync == SyncBatch {
				// Group commit makes the record durable before any ack: the
				// file must contain it already.
				data, err := os.ReadFile(filepath.Join(dir, "seg-000001-s0.ndjson"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(data, []byte(`"seq":1`)) {
					t.Fatalf("SyncBatch Commit did not flush: %q", data)
				}
			}
			if err := l.FlushAll(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "seg-000001-s0.ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(`"seq":1`)) {
				t.Fatalf("FlushAll did not write the record: %q", data)
			}
			if err := l.Close(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloseWhileSyncerTicks closes interval-synced logs whose syncer
// ticks all the time: Close must stop the syncer even when a tick is
// already waiting for the log's lock, instead of holding that lock while
// it waits for the syncer to exit.
func TestCloseWhileSyncerTicks(t *testing.T) {
	for i := 0; i < 50; i++ {
		l, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Begin(ShardWriters(1, false)); err != nil {
			t.Fatal(err)
		}
		app := l.Appender(ShardWriter(0))
		if err := app.Append(&Record{Seq: 1, Type: TypeResolve}); err != nil {
			t.Fatal(err)
		}
		if err := app.Commit(); err != nil {
			t.Fatal(err)
		}
		closed := make(chan error, 1)
		go func() { closed <- l.Close(nil) }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("close %d: Close and the interval syncer deadlocked", i)
		}
	}
}

// TestAppenderLargeBuffer drives an appender past the flush threshold
// so the mid-stream drain path runs.
func TestAppenderLargeBuffer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(ShardWriters(1, false)); err != nil {
		t.Fatal(err)
	}
	app := l.Appender(ShardWriter(0))
	n := appenderFlushAt/16 + 64
	for i := 1; i <= n; i++ {
		if err := app.Append(&Record{Seq: uint64(i), Type: TypeResolve, Tenant: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	rep, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != n || rep.MaxSeq != uint64(n) {
		t.Fatalf("got %d records max %d, want %d", len(rep.Records), rep.MaxSeq, n)
	}
}

// FuzzWALReplay fuzzes the segment parser: it must never panic, never
// skip a malformed line silently (records returned must re-encode to a
// prefix of the input modulo the torn tail), and must uphold the
// torn-tail rules.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(`{"seq":1,"type":"resolve"}` + "\n"))
	f.Add([]byte(`{"seq":1,"type":"stream_arrival","tenant":2,"stream":3}` + "\n" + `{"seq":2,"ty`))
	f.Add([]byte(`{"type":"catalog_settle","op":"commit","full":1.5}` + "\n\n"))
	f.Add([]byte("garbage\n"))
	f.Add([]byte(`{"seq":1,"type":"resolve"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := parseSegment(data)
		if err != nil {
			return
		}
		if sd.tornAt > int64(len(data)) {
			t.Fatalf("tornAt %d beyond input length %d", sd.tornAt, len(data))
		}
		if sd.tornAt >= 0 {
			// Everything after the torn offset must hold no newline — the
			// torn tail is by definition the unterminated final line.
			if bytes.IndexByte(data[sd.tornAt:], '\n') >= 0 {
				t.Fatalf("torn tail at %d contains a newline", sd.tornAt)
			}
		}
		// Accepted records must decode back from their own encoding
		// (the parser accepted only well-formed lines).
		var buf []byte
		for i := range sd.records {
			buf = AppendRecord(buf[:0], &sd.records[i])
			if _, err := DecodeRecord(buf[:len(buf)-1]); err != nil {
				t.Fatalf("accepted record %d does not re-decode: %v", i, err)
			}
			if sd.records[i].Type == "" {
				t.Fatalf("accepted record %d has empty type", i)
			}
		}
	})
}

// TestParseGen pins full-consumption parsing: a 7-digit generation
// must parse whole (a scanf-style 6-digit width would silently
// truncate 1000000 to 100000, colliding with an earlier generation),
// and any non-digit or non-positive token fails loudly.
func TestParseGen(t *testing.T) {
	good := map[string]int{
		"000001":  1,
		"000042":  42,
		"999999":  999999,
		"1000000": 1000000,
	}
	for s, want := range good {
		got, err := parseGen(s)
		if err != nil || got != want {
			t.Errorf("parseGen(%q) = %d, %v; want %d, nil", s, got, err, want)
		}
	}
	for _, s := range []string{"", "000000", "-00001", "+00001", "00001x", "1e3", " 1", "0000010x"} {
		if g, err := parseGen(s); err == nil {
			t.Errorf("parseGen(%q) = %d, want error", s, g)
		}
	}
}
