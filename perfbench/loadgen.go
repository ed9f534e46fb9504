package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/streamclient"
)

// loadgen is the load generator: one /v1/stream connection, the calling
// goroutine sending, a receiver goroutine reading result lines back.
// The schedule is one cycle of events sent over and over; event i of
// the connection is cycle[i % len(cycle)], and its result must be the
// i-th line back.
type loadgen struct {
	conn  *streamclient.Conn
	cycle []streamclient.Event
	// observe, when set, sees every result line on the receiver
	// goroutine (the workload's outcome model).
	observe func(i int, line []byte)
	// timeSends accumulates the time spent in Send and Flush (traced
	// runs only: two clock reads per event).
	timeSends bool
	sendNs    int64

	sent     int // events sent; sender-owned
	acked    atomic.Int64
	errLines atomic.Int64
	badSeq   atomic.Int64
	pace     atomic.Pointer[pacedAcks]
	// The paced phase's per-event buffers, reused from segment to
	// segment so that the generator's own memory stays out of
	// peak_mem_mb. A paced call's openLoop is valid until the next.
	acksBuf      []int64
	lateBuf, lat []float64

	recvDone chan struct{}
	recvErr  error // set before recvDone closes
	errMu    sync.Mutex
	firstErr string
}

// pacedAcks receives the ack times of the paced phase's events.
type pacedAcks struct {
	base int     // connection index of the phase's first event
	at   []int64 // run clock
}

// dialLoadgen opens the stream and starts the receiver.
func dialLoadgen(url string, cycle []streamclient.Event, observe func(int, []byte)) (*loadgen, error) {
	conn, err := streamclient.Dial(url)
	if err != nil {
		return nil, err
	}
	g := &loadgen{conn: conn, cycle: cycle, observe: observe, recvDone: make(chan struct{})}
	go g.receive()
	return g, nil
}

var errMark = []byte(`"error"`)

// receive reads result lines until the stream ends. An error line is a
// failed event; a line out of order is a broken ack contract.
func (g *loadgen) receive() {
	defer close(g.recvDone)
	for i := 0; ; i++ {
		line, err := g.conn.RecvRaw()
		if err == io.EOF {
			return
		}
		if err != nil {
			g.recvErr = err
			return
		}
		t := now()
		if seq, ok := lineSeq(line); !ok || seq != i {
			g.badSeq.Add(1)
		}
		if bytes.Contains(line, errMark) {
			if g.errLines.Add(1) == 1 {
				g.errMu.Lock()
				g.firstErr = string(line)
				g.errMu.Unlock()
			}
		}
		if g.observe != nil {
			g.observe(i, line)
		}
		if p := g.pace.Load(); p != nil && i >= p.base && i < p.base+len(p.at) {
			p.at[i-p.base] = t
		}
		g.acked.Store(int64(i + 1))
	}
}

// lineSeq parses the leading {"seq":N of a result line.
func lineSeq(line []byte) (int, bool) {
	if !bytes.HasPrefix(line, resultMark) {
		return 0, false
	}
	n, digits := 0, 0
	for _, c := range line[len(resultMark):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	return n, digits > 0
}

func (g *loadgen) send() error {
	ev := g.cycle[g.sent%len(g.cycle)]
	if g.timeSends {
		t0 := now()
		err := g.conn.Send(ev)
		g.sendNs += now() - t0
		g.sent++
		return err
	}
	g.sent++
	return g.conn.Send(ev)
}

func (g *loadgen) flush() error {
	if g.timeSends {
		t0 := now()
		err := g.conn.Flush()
		g.sendNs += now() - t0
		return err
	}
	return g.conn.Flush()
}

// ackTimeout bounds the wait for outstanding results; a stack that
// misses it fails the run.
const ackTimeout = 60 * time.Second

// waitAcked flushes and waits until every sent event has its result,
// calling tick (when set) as it polls.
func (g *loadgen) waitAcked(tick func()) error {
	if err := g.flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(ackTimeout)
	for g.acked.Load() < int64(g.sent) {
		select {
		case <-g.recvDone:
			if g.acked.Load() < int64(g.sent) {
				return fmt.Errorf("stream ended with %d of %d results: %v", g.acked.Load(), g.sent, g.recvErr)
			}
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d results after %v", g.acked.Load(), g.sent, ackTimeout)
		}
		time.Sleep(50 * time.Microsecond)
		if tick != nil {
			tick()
		}
	}
	return nil
}

// maxInFlight is the closed loop's window: the server's stream window.
// The router enforces none of its own, and without this cap a sender
// would park a backlog in socket buffers that takes seconds to drain.
const maxInFlight = 16384

// sendBatch sends up to limit (at most 64) events, or, when the
// in-flight window is full, flushes and waits a moment instead. It
// returns how many it sent.
func (g *loadgen) sendBatch(limit int) (int, error) {
	if g.sent-int(g.acked.Load()) >= maxInFlight-64 {
		if err := g.flush(); err != nil {
			return 0, err
		}
		time.Sleep(50 * time.Microsecond)
		return 0, nil
	}
	n := min(limit, 64)
	for k := 0; k < n; k++ {
		if err := g.send(); err != nil {
			return k, err
		}
	}
	return n, nil
}

// closedLoop is the unpaced phase's outcome.
type closedLoop struct {
	events      int
	elapsed     time.Duration
	windowRates []float64 // acked events/s per window after warm-up
}

// unpacedWindow is the throughput sampling interval.
const unpacedWindow = 100 * time.Millisecond

// unpaced sends as fast as the in-flight window lets it, for d or until
// maxEvents were sent (0: no limit), then waits for every result.
// Acked throughput is sampled per window from the end of the warm-up
// until the last result, so a backlog's drain is measured too.
func (g *loadgen) unpaced(d, warm time.Duration, maxEvents int) (closedLoop, error) {
	start, first := now(), g.sent
	deadline := start + int64(d)
	nextMark := start + int64(warm)
	var ts, counts []int64
	mark := func() {
		for t := now(); t >= nextMark; nextMark += int64(unpacedWindow) {
			ts = append(ts, t)
			counts = append(counts, g.acked.Load())
		}
	}
	for now() < deadline && (maxEvents == 0 || g.sent-first < maxEvents) {
		if _, err := g.sendBatch(64); err != nil {
			return closedLoop{}, err
		}
		mark()
	}
	if err := g.waitAcked(mark); err != nil {
		return closedLoop{}, err
	}
	return closedLoop{
		events:      g.sent - first,
		elapsed:     time.Duration(now() - start),
		windowRates: windowRates(ts, counts),
	}, nil
}

// replay sends exactly n events as fast as the stream allows and waits
// for their results: the ladder's closed loop.
func (g *loadgen) replay(n int) (time.Duration, error) {
	start := now()
	for left := n; left > 0; {
		k, err := g.sendBatch(left)
		if err != nil {
			return 0, err
		}
		left -= k
	}
	if err := g.waitAcked(nil); err != nil {
		return 0, err
	}
	return time.Duration(now() - start), nil
}

// openLoop is the paced phase's outcome.
type openLoop struct {
	events    int
	pace      pacing
	acks      []int64   // run clock, per event
	latencyUs []float64 // due time to result line, per event
	lateUs    []float64 // due time to send, per event
}

// paced offers rate events/s for d on an open loop: event j is due at
// a fixed time and is sent then, or as soon after as the sender gets
// to it; every event already due goes out in one flush.
func (g *loadgen) paced(rate float64, d time.Duration) (openLoop, error) {
	n := int(rate * d.Seconds())
	g.acksBuf, g.lateBuf = resize(g.acksBuf, n), resize(g.lateBuf, n)
	rec := &pacedAcks{base: g.sent, at: g.acksBuf}
	g.pace.Store(rec)
	defer g.pace.Store(nil)
	p := pacing{start: now() + int64(time.Millisecond), period: 1e9 / rate}
	late := g.lateBuf
	for j := 0; j < n; {
		if wait := p.due(j) - now(); wait > 0 {
			preciseSleep(time.Duration(wait))
		}
		t := now()
		for j < n && p.due(j) <= t {
			if err := g.send(); err != nil {
				return openLoop{}, err
			}
			late[j] = float64(t-p.due(j)) / 1e3
			j++
		}
		if err := g.flush(); err != nil {
			return openLoop{}, err
		}
	}
	if err := g.waitAcked(nil); err != nil {
		return openLoop{}, err
	}
	g.lat = dueLatencies(g.lat, p, rec.at)
	return openLoop{events: n, pace: p, acks: rec.at, latencyUs: g.lat, lateUs: late}, nil
}

// close ends the stream and waits for the receiver to exit.
func (g *loadgen) close() error {
	err := g.conn.CloseSend()
	select {
	case <-g.recvDone:
	case <-time.After(ackTimeout):
		err = fmt.Errorf("stream did not end after CloseSend")
	}
	g.conn.Close()
	<-g.recvDone
	return err
}

// failures counts error lines and out-of-order results so far.
func (g *loadgen) failures() int { return int(g.errLines.Load() + g.badSeq.Load()) }

func (g *loadgen) firstError() string {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.firstErr
}

// snapshotPolls reads GET /v1/fleet/snapshot at a fixed rate on its own
// connection until ctx ends: reads beside the paced writes, each one a
// barrier across every shard.
type snapshotPolls struct {
	durMs    []float64
	failures int
}

func pollSnapshots(ctx context.Context, url string, rate float64) *snapshotPolls {
	out := &snapshotPolls{}
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	p := pacing{start: now(), period: 1e9 / rate}
	for j := 0; ; j++ {
		if wait := p.due(j) - now(); wait > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(time.Duration(wait)):
			}
		}
		if ctx.Err() != nil {
			return out
		}
		t0 := now()
		resp, err := client.Get(url + "/v1/fleet/snapshot")
		if err != nil {
			out.failures++
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			out.failures++
			continue
		}
		out.durMs = append(out.durMs, float64(now()-t0)/1e6)
	}
}
