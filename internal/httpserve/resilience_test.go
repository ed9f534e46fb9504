package httpserve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	videodist "repro"
	"repro/streamclient"
)

// renderFleet quiesces a fleet and returns its canonical renders.
func renderFleet(t *testing.T, c *videodist.Cluster) string {
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

// sessionDial opens a /v1/stream connection claiming a resume session.
func sessionDial(t *testing.T, url, id string) *streamclient.Conn {
	t.Helper()
	conn, err := streamclient.DialWith(url, streamclient.DialOptions{
		Header: map[string]string{"X-Stream-Session": id},
	})
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestStreamSessionResumeDedup pins the exactly-once resume protocol:
// a second connection claiming the same session may replay events at
// or below the server's watermark and gets dup acknowledgements for
// them instead of a second application, while events past the
// watermark apply normally.
func TestStreamSessionResumeDedup(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandlerOpts(c, Options{}))
	defer ts.Close()

	offer := func(seq int) streamclient.Event {
		return streamclient.Event{
			Seq: uint64(seq), Tenant: 0, Type: "catalog-offer",
			CatalogID: fmt.Sprintf("ch-%03d", seq-1),
		}
	}

	// First connection applies seq 1..6.
	conn := sessionDial(t, ts.URL, "resume-test")
	for seq := 1; seq <= 6; seq++ {
		if err := conn.Send(offer(seq)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := 1; seq <= 6; seq++ {
		res, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if res.Seq != seq || res.Error != "" || res.Dup {
			t.Fatalf("conn1 result %d: %+v", seq, res)
		}
	}
	if err := conn.CloseSend(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Second connection resumes: replays 4..6 (a client that crashed
	// before those acks landed), then continues with 7..9.
	conn = sessionDial(t, ts.URL, "resume-test")
	for seq := 4; seq <= 9; seq++ {
		if err := conn.Send(offer(seq)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := 4; seq <= 9; seq++ {
		res, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if res.Seq != seq || res.Error != "" {
			t.Fatalf("conn2 result %d: %+v", seq, res)
		}
		if wantDup := seq <= 6; res.Dup != wantDup {
			t.Fatalf("conn2 seq %d: dup = %v, want %v", seq, res.Dup, wantDup)
		}
	}
	if err := conn.CloseSend(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// No double-apply: a control fleet that saw each of the nine offers
	// exactly once renders byte-identically to the sessioned fleet.
	control := buildFleet(t, defaultFleetConfig())
	ctx := context.Background()
	for seq := 1; seq <= 9; seq++ {
		if _, err := control.OfferCatalogStream(ctx, 0, channelID(seq-1)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := renderFleet(t, c), renderFleet(t, control); got != want {
		t.Fatalf("sessioned fleet diverged from exactly-once control:\n got: %s\nwant: %s", got, want)
	}

	// A resume that skips past the watermark is a protocol error: the
	// client lost events the server never saw, and applying from the
	// gap would silently drop them.
	conn = sessionDial(t, ts.URL, "resume-test")
	if err := conn.Send(offer(11)); err != nil { // watermark is 9, next must be <= 10
		t.Fatal(err)
	}
	conn.Flush()
	res, err := conn.Recv()
	if err == nil && (res.Seq != -1 || res.Error == "") {
		t.Fatalf("gap resume accepted: %+v", res)
	}
	conn.Close()

	// Sessionless connections must not be sequenced: no seq, no dedup.
	plain, err := streamclient.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Send(streamclient.Event{Tenant: 1, Type: "offer", Stream: 3}); err != nil {
		t.Fatal(err)
	}
	if res, err := plain.Recv(); err != nil || res.Error != "" {
		t.Fatalf("plain stream after sessions: res=%+v err=%v", res, err)
	}
	plain.CloseSend()
	plain.Close()
}

// TestGovernorTripAndRecover drives the shed governor through a trip
// and a cool-off on a fake clock.
func TestGovernorTripAndRecover(t *testing.T) {
	now := time.Unix(1000, 0)
	g := newGovernor(10*time.Millisecond, time.Second)
	g.now = func() time.Time { return now }

	for i := 0; i < govRecompute; i++ {
		g.observe(20 * time.Millisecond) // every ack slow: p99 far over threshold
	}
	if !g.shedding() {
		t.Fatal("governor did not trip after a full recompute window of slow acks")
	}
	now = now.Add(1100 * time.Millisecond)
	if g.shedding() {
		t.Fatal("governor still shedding after the cool-off")
	}
	// Fast probe traffic flushes the slow tail out of the rolling
	// window (re-tripping along the way is fine — the overload is still
	// visible in the p99 until enough fast acks displace it); once the
	// window is all-fast and the cool-off passes, the governor stays
	// open through further recomputes.
	for i := 0; i < 8*govRecompute; i++ {
		g.observe(time.Millisecond)
	}
	now = now.Add(1100 * time.Millisecond)
	if g.shedding() {
		t.Fatal("still shedding after the window flushed and the cool-off passed")
	}
	for i := 0; i < govRecompute; i++ {
		g.observe(time.Millisecond)
	}
	if g.shedding() {
		t.Fatal("governor re-tripped on an all-fast window")
	}
}

// TestShedOverload pins the end-to-end degradation contract: when the
// ack p99 crosses the configured ceiling the server sheds with a fast
// 503 + Retry-After instead of queueing, the stream client surfaces it
// as ErrOverloaded with the parsed hint, and traffic is admitted again
// after the cool-off.
func TestShedOverload(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandlerOpts(c, Options{
		ShedP99:    time.Nanosecond, // any real ack latency counts as overload
		RetryAfter: time.Second,
	}))
	defer ts.Close()

	for i := 0; i < govRecompute; i++ {
		if code := postEvent(t, ts, i%4, streamclient.Event{Type: "resolve", Stream: i % 12}, nil); code != http.StatusOK {
			t.Fatalf("warmup event %d: status %d", i, code)
		}
	}

	// The stream client sees the shed 503 as a typed, retryable error
	// carrying the parsed hint.
	conn, err := streamclient.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Recv()
	if !errors.Is(err, streamclient.ErrOverloaded) {
		t.Fatalf("stream dial under shed: err = %v, want ErrOverloaded", err)
	}
	var se *streamclient.StatusError
	if !errors.As(err, &se) || se.RetryAfter != time.Second || !se.Retryable() {
		t.Fatalf("StatusError not carrying the hint: %+v", se)
	}
	conn.Close()

	resp, err := http.Post(ts.URL+"/v1/tenants/0/events", "application/json",
		strings.NewReader(`{"type":"resolve","stream":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded server answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q", ra, "1")
	}

	// After the cool-off the next request is admitted (it is the probe
	// that decides whether shedding resumes).
	time.Sleep(1200 * time.Millisecond)
	if code := postEvent(t, ts, 0, streamclient.Event{Type: "resolve", Stream: 0}, nil); code != http.StatusOK {
		t.Fatalf("post-cool-off probe: status %d, want 200", code)
	}
}

// TestStreamWriteDeadlineSevers pins the stalled-consumer contract: a
// stream client that submits forever but never reads its results would
// park the response write and pin the handler (and its in-flight
// window) for the life of the process. With StreamWriteTimeout the
// write deadline severs the connection, every applied event settles
// through the normal worker path, and the fleet stays fully available.
func TestStreamWriteDeadlineSevers(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandlerOpts(c, Options{StreamWriteTimeout: 250 * time.Millisecond}))
	defer ts.Close()

	// A raw chunked request, so the client's receive buffer stays at
	// the kernel default and fills quickly (streamclient would tune it
	// up and hide the stall for much longer).
	host := strings.TrimPrefix(ts.URL, "http://")
	raw, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bw := bufio.NewWriter(raw)
	fmt.Fprintf(bw, "POST /v1/stream HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", host)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Pump events and never read a byte back. Once the response path's
	// buffers fill, the handler's write parks and the deadline fires;
	// the server then severs, and our writes start failing.
	var severed atomic.Bool
	go func() {
		for i := 0; i < 200000; i++ {
			line := fmt.Sprintf(`{"tenant":%d,"type":"resolve","stream":%d}`, i%4, i%12)
			chunk := fmt.Sprintf("%x\r\n%s\n\r\n", len(line)+1, line)
			raw.SetWriteDeadline(time.Now().Add(time.Second))
			if _, err := raw.Write([]byte(chunk)); err != nil {
				severed.Store(true)
				return
			}
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for !severed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never severed the stalled stream")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The fleet is untouched by the severed consumer: the in-flight
	// window settled, and both the event path and a fresh stream work.
	if code := postEvent(t, ts, 0, streamclient.Event{Type: "resolve", Stream: 1}, nil); code != http.StatusOK {
		t.Fatalf("event endpoint after severance: status %d", code)
	}
	conn, err := streamclient.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(streamclient.Event{Tenant: 2, Type: "offer", Stream: 5}); err != nil {
		t.Fatal(err)
	}
	if res, err := conn.Recv(); err != nil || res.Error != "" {
		t.Fatalf("fresh stream after severance: res=%+v err=%v", res, err)
	}
	conn.CloseSend()
	conn.Close()
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("barrier after severance: %v", err)
	}
}
