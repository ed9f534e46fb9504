package chaos

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// pipePair returns two ends of an in-process TCP connection, so cut
// semantics (RST vs FIN) behave like production.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func TestConnScriptCutAfterWrites(t *testing.T) {
	client, server := pipePair(t)
	fc := WrapConn(client, ConnScript{CutAfterWrites: 2})
	if _, err := fc.Write([]byte("one\n")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := fc.Write([]byte("two\n")); err != nil {
		t.Fatalf("write 2 (the cut happens after it completes): %v", err)
	}
	if _, err := fc.Write([]byte("three\n")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 3 after cut: got %v, want ErrInjected", err)
	}
	// The peer reads the two delivered writes, then an error (RST) or
	// EOF — never a clean third line.
	buf := make([]byte, 64)
	total := 0
	for {
		n, err := server.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	if got := string(buf[:total]); strings.Contains(got, "three") {
		t.Fatalf("peer saw data written after the cut: %q", got)
	}
}

func TestConnScriptPartialWrite(t *testing.T) {
	client, server := pipePair(t)
	fc := WrapConn(client, ConnScript{PartialWriteAt: 1})
	payload := []byte("0123456789abcdef")
	n, err := fc.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error: got %v", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write reported %d bytes, want %d", n, len(payload)/2)
	}
	buf := make([]byte, 64)
	total := 0
	for {
		rn, rerr := server.Read(buf[total:])
		total += rn
		if rerr != nil {
			break
		}
	}
	if total > len(payload)/2 {
		t.Fatalf("peer received %d bytes of a torn %d-byte frame", total, len(payload))
	}
}

func TestConnScriptStallDelays(t *testing.T) {
	client, server := pipePair(t)
	fc := WrapConn(client, ConnScript{StallEvery: 1, Stall: 30 * time.Millisecond})
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("stalled write returned in %v, want >= 30ms", d)
	}
}

func TestDialerAppliesPlanPerConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				_, _ = io.Copy(io.Discard, c)
				c.Close()
			}(c)
		}
	}()
	dial := Dialer(func(i int) ConnScript {
		if i == 0 {
			return ConnScript{CutAfterWrites: 1}
		}
		return ConnScript{}
	}, nil)
	c0, err := dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	if _, err := c0.Write([]byte("a")); err != nil {
		t.Fatalf("conn 0 write 1: %v", err)
	}
	if _, err := c0.Write([]byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("conn 0 write 2: got %v, want ErrInjected", err)
	}
	c1, err := dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	for i := 0; i < 4; i++ {
		if _, err := c1.Write([]byte("ok")); err != nil {
			t.Fatalf("conn 1 (no script) write %d: %v", i, err)
		}
	}
}

func TestFSFailSyncLatches(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{
		Dir:  dir,
		Sync: wal.SyncBatch,
		FS:   NewFS(nil, FileFault{Match: "s0", FailSyncAt: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin([]string{"s0"}); err != nil {
		t.Fatal(err) // sync 1 is the open-time prealloc sync: must pass
	}
	a := l.Appender("s0")
	if err := a.Append(&wal.Record{Seq: 1, Type: wal.TypeResolve, Tenant: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first commit: got %v, want injected fsync fault", err)
	}
	// Latched: later appends and commits fail fast without touching
	// the disk again.
	if err := a.Append(&wal.Record{Seq: 2, Type: wal.TypeResolve, Tenant: 1}); err == nil {
		t.Fatal("append after latched fsync error succeeded")
	}
	if err := a.Commit(); err == nil {
		t.Fatal("commit after latched fsync error succeeded")
	}
}

func TestFSTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	// Write through a FS that tears the stream at byte 100, abandon,
	// then recover with a clean log handle: the torn line must be
	// classified and truncated, and the surviving records must be an
	// ordered prefix.
	l, err := wal.Open(wal.Options{
		Dir:  dir,
		Sync: wal.SyncNone,
		FS:   NewFS(nil, FileFault{TornTailAt: 100}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin([]string{"s0"}); err != nil {
		t.Fatal(err)
	}
	a := l.Appender("s0")
	for i := 1; i <= 20; i++ {
		if err := a.Append(&wal.Record{Seq: uint64(i), Type: wal.TypeResolve, Tenant: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// Abandon l (crash); recover through the real filesystem.
	l2, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l2.ReadAll()
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	if len(rep.Records) == 0 || len(rep.Records) >= 20 {
		t.Fatalf("torn log recovered %d of 20 records, want a proper non-empty prefix", len(rep.Records))
	}
	for i, r := range rep.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("recovered record %d has seq %d: not a contiguous prefix", i, r.Seq)
		}
	}
	if len(rep.Truncated) != 1 {
		t.Fatalf("expected exactly one truncated segment, got %v", rep.Truncated)
	}
}

func TestPlansAreDeterministic(t *testing.T) {
	a, b := PlanStorm(42, 8), PlanStorm(42, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PlanStorm(42) burst %d differs across calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := PlanStorm(43, 8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] && c[3] == a[3] {
		t.Fatal("PlanStorm(43) identical to PlanStorm(42) on first four bursts")
	}
	sa, sb := PlanConnScripts(7, 12), PlanConnScripts(7, 12)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("PlanConnScripts(7) script %d differs across calls", i)
		}
	}
	for i := 3; i < 12; i += 4 {
		if !sa[i].zero() {
			t.Fatalf("script %d should be the surviving connection, got %+v", i, sa[i])
		}
	}
}
