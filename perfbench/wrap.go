package main

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/wal"
)

// The traced run wraps the stack's public seams — the server listener,
// the WAL's filesystem, the catalog service, and the router's upstream
// dialer — and times or counts the calls that cross them. Nothing here
// reaches inside a layer.

// clockBase anchors the run's monotonic clock.
var clockBase = time.Now()

// now is the run clock: ns since the run began.
func now() int64 { return int64(time.Since(clockBase)) }

// maxSpans caps the spans one run keeps in memory; later spans are
// counted, not kept.
const maxSpans = 100_000

// tracer keeps spans in memory until the run ends. Each ladder rung
// opens a root span; seam spans recorded during the rung hang under it.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	nextID  atomic.Int64
	rung    atomic.Int64
	root    atomic.Int64
}

func (t *tracer) id() int64 { return t.nextID.Add(1) }

// beginRung starts rung n and returns its root span ID; the root span
// itself is recorded by endRung.
func (t *tracer) beginRung(n int) (id, start int64) {
	id = t.id()
	t.rung.Store(int64(n))
	t.root.Store(id)
	return id, now()
}

func (t *tracer) endRung(id int64, name string, start int64) {
	t.recordID(id, 0, name, start, now())
	t.root.Store(0)
}

// record stores a finished span under the current rung's root.
func (t *tracer) record(name string, start, end int64) int64 {
	return t.recordID(t.id(), t.root.Load(), name, start, end)
}

func (t *tracer) recordID(id, parent int64, name string, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rung: int(t.rung.Load()), Start: start, End: end})
	return id
}

// ioCounts tallies one side of a wrapped connection.
type ioCounts struct {
	writes   atomic.Int64
	written  atomic.Int64
	read     atomic.Int64
	linesOut atomic.Int64 // result lines written
}

// resultMark starts every stream result line on the wire.
var resultMark = []byte(`{"seq":`)

// countingListener counts the server side of every stream connection
// it accepts: writes (one per flush reaching the socket), bytes each
// way, and result lines written. Connections whose request is a GET
// (snapshot polls) are left out.
type countingListener struct {
	net.Listener
	c *ioCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c      *ioCounts
	sniff  bool // first read seen
	stream bool
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	if !cc.sniff && n > 0 {
		cc.sniff = true
		cc.stream = !bytes.HasPrefix(p[:n], []byte("GET "))
	}
	if cc.stream {
		cc.c.read.Add(int64(n))
	}
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	if cc.stream {
		cc.c.writes.Add(1)
		cc.c.written.Add(int64(n))
		cc.c.linesOut.Add(int64(bytes.Count(p[:n], resultMark)))
	}
	return n, err
}

// dialCounter wraps a dialer and counts writes on every connection it
// opens (the router's upstream node connections).
type dialCounter struct {
	writes atomic.Int64
}

func (d *dialCounter) dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &writeCountConn{Conn: conn, n: &d.writes}, nil
}

type writeCountConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *writeCountConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// walStats tallies the WAL's segment I/O.
type walStats struct {
	writes  atomic.Int64
	bytes   atomic.Int64
	mu      sync.Mutex
	syncsUs []float64
	tr      *tracer
}

// spyFS opens real segments and wraps each in a spyFile. A wrapped file
// loses the WAL's optional async-writeback hint (an unexported method),
// so traced flush rounds skip the I/O overlap the hint buys;
// durability still rests on the per-file datasyncs, as it always does.
type spyFS struct{ s *walStats }

func (f spyFS) OpenSegment(path string) (wal.File, error) {
	file, err := wal.OSFS{}.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	return spyFile{File: file, s: f.s}, nil
}

type spyFile struct {
	wal.File
	s *walStats
}

func (f spyFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.s.writes.Add(1)
	f.s.bytes.Add(int64(n))
	return n, err
}

func (f spyFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.s.writes.Add(1)
	f.s.bytes.Add(int64(n))
	return n, err
}

func (f spyFile) Datasync() error {
	t0 := now()
	err := f.File.Datasync()
	t1 := now()
	f.s.mu.Lock()
	f.s.syncsUs = append(f.s.syncsUs, float64(t1-t0)/1e3)
	f.s.mu.Unlock()
	f.s.tr.record("wal.datasync", t0, t1)
	return err
}

// catOp is one timed catalog service call.
type catOp struct {
	kind       string // "acquire", "settle" or "lookup"
	ops        int    // ids or settlements the call carried
	start, end int64
	span       int64
}

// catalogSpy is a catalog.Service that times every registry call it
// forwards. Snapshot, Close and the durability plane pass through
// untimed: they are not per-event work, and the router reads snapshots
// over a path with no client side to pair them with.
//
// A client-side spy (a node's wire client) records its spans as calls
// end, under the rung's root span. A server-side spy (the registry
// behind one node's catalog listener) has tr nil: its calls are paired
// with the client's afterwards and recorded as their children (see
// remoteSpans).
type catalogSpy struct {
	catalog.Service
	name string // span name prefix
	tr   *tracer
	mu   sync.Mutex
	log  []catOp
}

func (s *catalogSpy) note(kind string, ops int, start int64) {
	end := now()
	op := catOp{kind: kind, ops: ops, start: start, end: end}
	if s.tr != nil {
		op.span = s.tr.record(s.name+"."+kind, start, end)
	}
	s.mu.Lock()
	s.log = append(s.log, op)
	s.mu.Unlock()
}

func (s *catalogSpy) ops() []catOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]catOp(nil), s.log...)
}

func (s *catalogSpy) Acquire(id catalog.ID, tenant int) (catalog.Ticket, error) {
	t0 := now()
	tk, err := s.Service.Acquire(id, tenant)
	s.note("acquire", 1, t0)
	return tk, err
}

func (s *catalogSpy) AcquireBatch(tenant int, ids []catalog.ID, out []catalog.Ticket) error {
	t0 := now()
	err := s.Service.AcquireBatch(tenant, ids, out)
	s.note("acquire", len(ids), t0)
	return err
}

func (s *catalogSpy) Lookup(id catalog.ID, tenant int) (int, error) {
	t0 := now()
	local, err := s.Service.Lookup(id, tenant)
	s.note("lookup", 1, t0)
	return local, err
}

func (s *catalogSpy) Release(id catalog.ID, tenant int, held, origin bool) (int, bool) {
	t0 := now()
	refs, evicted := s.Service.Release(id, tenant, held, origin)
	s.note("settle", 1, t0)
	return refs, evicted
}

func (s *catalogSpy) SettleBatch(ops []catalog.Settlement, out []catalog.SettleResult) error {
	t0 := now()
	err := s.Service.SettleBatch(ops, out)
	s.note("settle", len(ops), t0)
	return err
}
