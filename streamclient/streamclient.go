// Package streamclient is the Go client for the serving API v4
// streaming ingestion endpoint (`POST /v1/stream`, served by mmdserve
// and internal/httpserve): a single long-lived HTTP request whose
// chunked NDJSON body carries one Event per line, answered by one
// NDJSON Result line per event on the response stream, in submission
// order. The Event and Result structs ARE the wire format — both ends
// of the protocol marshal exactly these.
//
// A Conn supports one sender and one receiver goroutine concurrently
// (each side is independently serialized): pipeline Sends without
// waiting, Recv the results in order, CloseSend when done, and drain
// until io.EOF. Flow control is end to end — the server applies events
// under a bounded in-flight window and writes results as they settle,
// so a sender that outruns the reader is eventually parked by TCP
// backpressure, never by unbounded buffering.
//
// The client speaks HTTP/1.1 directly over its own TCP connection
// (request chunks framed by hand, response parsing via
// http.ReadResponse) instead of going through http.Client: the standard
// transport buffers streaming request bodies under its own flush
// policy, while a pipelined protocol needs the flushes under the
// client's control — lines coalesce while traffic flows and hit the
// wire the moment a receiver would otherwise block (see Send/Flush).
package streamclient

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	videodist "repro"
	"repro/internal/ndjson"
)

// ErrOverloaded matches (via errors.Is) a StatusError for a 503 the
// server sent while shedding load: the request was refused fast, with
// a Retry-After hint, instead of queueing into a latency collapse. A
// resumable Session backs off and retries it automatically; plain
// Conn callers decide for themselves.
var ErrOverloaded = errors.New("streamclient: server overloaded")

// StatusError is a non-200 response to the stream request. It latches
// the Conn (the protocol has no mid-stream recovery on one
// connection); a Session reacts by backing off and redialing when the
// status is retryable.
type StatusError struct {
	// Code and Status are the HTTP status ("503 Service Unavailable").
	Code   int
	Status string
	// Message is the server's error body, if any.
	Message string
	// RetryAfter is the parsed Retry-After delay (0 when absent) — the
	// server's shed-backoff hint on a 503.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("streamclient: server status %s", e.Status)
	}
	return fmt.Sprintf("streamclient: server status %s: %s", e.Status, e.Message)
}

// Is makes errors.Is(err, ErrOverloaded) true for a 503.
func (e *StatusError) Is(target error) bool {
	return target == ErrOverloaded && e.Code == http.StatusServiceUnavailable
}

// Retryable reports whether redialing can succeed: overload (503),
// queue-full (429), request-timeout (408), and other 5xx are
// transient; everything else (bad request, unknown tenant) is not.
func (e *StatusError) Retryable() bool {
	return e.Code == http.StatusTooManyRequests ||
		e.Code == http.StatusRequestTimeout ||
		e.Code >= 500
}

// Event is the NDJSON wire form of one fleet event (one line of the
// request body).
type Event struct {
	// Seq is the client-assigned per-session sequence number (1-based),
	// set only on resumable sessions (see Session): the server dedups
	// replayed seqs against the session's applied set so a retried event
	// is applied at most once. 0 (omitted) on plain connections.
	Seq uint64 `json:"seq,omitempty"`
	// Tenant is the target tenant index.
	Tenant int `json:"tenant"`
	// Type selects the operation: "offer", "depart", "leave", "join",
	// "resolve", "catalog-offer", or "catalog-depart".
	Type string `json:"type"`
	// Stream is the local stream index (offer, depart).
	Stream int `json:"stream,omitempty"`
	// User is the gateway index (leave, join).
	User int `json:"user,omitempty"`
	// Install asks a resolve to install the offline assignment.
	Install bool `json:"install,omitempty"`
	// CatalogID is the fleet-wide stream identity (catalog-offer,
	// catalog-depart; ignored on every other type).
	CatalogID string `json:"catalog_id,omitempty"`
}

// Result is the NDJSON wire form of one per-event result (one line of
// the response stream). Exactly the field matching Type is set; Error
// carries a per-event failure without ending the stream. A final line
// with Error set, Seq -1, and no Type reports a protocol violation
// (a malformed line, or an event CheckEvent refuses) that terminated
// the stream server-side.
type Result struct {
	// Seq is the event's submission index on this stream (0-based; the
	// request line's seq on a session stream).
	Seq int `json:"seq"`
	// Type echoes the request line's type.
	Type string `json:"type,omitempty"`
	// Typed results, mirroring the single-event endpoint.
	Offer   *videodist.OfferResult   `json:"offer,omitempty"`
	Depart  *videodist.DepartResult  `json:"depart,omitempty"`
	Churn   *videodist.ChurnResult   `json:"churn,omitempty"`
	Resolve *videodist.ResolveResult `json:"resolve,omitempty"`
	Catalog *videodist.CatalogResult `json:"catalog,omitempty"`
	// Error is the per-event (or, on the final line, stream-fatal)
	// failure.
	Error string `json:"error,omitempty"`
	// Dup marks a dedup acknowledgement on a resumed session: the
	// event with this Seq was already applied before the reconnect, so
	// the server skipped it instead of applying it twice. No typed
	// result accompanies it (the original was delivered on the
	// connection that died).
	Dup bool `json:"dup,omitempty"`
}

// Conn is one persistent streaming ingestion connection.
type Conn struct {
	conn net.Conn
	bw   *bufio.Writer // the request: its headers, then its body's chunks
	br   *bufio.Reader

	sendMu     sync.Mutex
	sendClosed bool
	sendBuf    []byte   // reused line-encoding scratch
	chunkHead  [18]byte // a body chunk's size line: 16 hex digits, CRLF

	recvMu  sync.Mutex
	resp    *http.Response
	recvErr error         // latched fatal receive error (e.g. non-200)
	bodyr   *bufio.Reader // de-chunked response lines
	lineBuf []byte        // reused long-line scratch
}

// DialOptions tune how a Conn reaches the server. The zero value is
// Dial's behavior.
type DialOptions struct {
	// Dial replaces net.Dial for the underlying TCP connection — the
	// seam chaos tests and instrumented clients hook (see
	// internal/chaos.Dialer). Nil uses net.Dial.
	Dial func(network, addr string) (net.Conn, error)
	// Header adds extra request headers (canonical-cased keys), e.g.
	// the X-Stream-Session id a resumable session announces itself
	// with. Values must be header-safe; they are written verbatim.
	Header map[string]string
	// Path overrides the request path (default "/v1/stream"). Other
	// full-duplex NDJSON endpoints — the fleet catalog service's wire
	// protocol among them — ride the same chunked transport by pointing
	// a Conn at their path and exchanging raw lines via SendRaw /
	// RecvRaw.
	Path string
}

// Dial opens a streaming session against an mmdserve base URL (e.g.
// "http://localhost:8080"): it connects, sends the request headers for
// POST /v1/stream, and returns a Conn ready to Send and Recv.
func Dial(baseURL string) (*Conn, error) { return DialWith(baseURL, DialOptions{}) }

// DialWith is Dial with explicit options.
func DialWith(baseURL string, opts DialOptions) (*Conn, error) {
	raw := baseURL
	if !strings.Contains(raw, "://") {
		// Tolerate a bare "host:port".
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("streamclient: bad url %q: %w", baseURL, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("streamclient: unsupported scheme %q (plain http only)", u.Scheme)
	}
	host := u.Host
	if host == "" {
		return nil, fmt.Errorf("streamclient: no host in %q", baseURL)
	}
	dial := opts.Dial
	if dial == nil {
		dial = net.Dial
	}
	conn, err := dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("streamclient: %w", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// A pipelined stream is bursty in both directions; on a busy
		// host the receiving side can be descheduled long enough for a
		// default-sized receive buffer to overflow, which on loopback
		// surfaces as a dropped segment and a ~200ms retransmission
		// stall. A roomy buffer absorbs the bursts (best effort — the
		// kernel caps it).
		_ = tc.SetReadBuffer(4 << 20)
	}
	path := opts.Path
	if path == "" {
		path = "/v1/stream"
	}
	bw := bufio.NewWriter(conn)
	fmt.Fprintf(bw, "POST %s HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/x-ndjson\r\nAccept: application/x-ndjson\r\n"+
		"Transfer-Encoding: chunked\r\n", path, host)
	for k, v := range opts.Header {
		fmt.Fprintf(bw, "%s: %s\r\n", k, v)
	}
	bw.WriteString("\r\n")
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("streamclient: %w", err)
	}
	return &Conn{conn: conn, bw: bw, br: bufio.NewReader(conn)}, nil
}

// Send pipelines one event: the line is encoded into the send buffer
// without waiting for its result. Buffered lines leave as one chunk
// when the buffer fills, when a Recv is about to block with nothing
// readable (the usual path — no stray syscall per line under load), on
// Flush, and on CloseSend; a sender that goes silent without ever
// doing any of those should call Flush itself.
func (c *Conn) Send(ev Event) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.sendClosed {
		return fmt.Errorf("streamclient: send side closed")
	}
	c.sendBuf = ev.AppendJSON(c.sendBuf)
	c.sendBuf = append(c.sendBuf, '\n')
	// Lines accumulate and leave as one chunk per flush — large chunks
	// amortize the chunked-transfer framing as well as the syscall.
	if len(c.sendBuf) >= 16<<10 {
		return c.flushLocked()
	}
	return nil
}

// SendRaw pipelines one preformatted wire line (without a trailing
// newline) — the generic-protocol twin of Send for Conns pointed at
// other NDJSON endpoints via DialOptions.Path. The buffering and flush
// policy match Send's.
func (c *Conn) SendRaw(line []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.sendClosed {
		return fmt.Errorf("streamclient: send side closed")
	}
	c.sendBuf = append(c.sendBuf, line...)
	c.sendBuf = append(c.sendBuf, '\n')
	if len(c.sendBuf) >= 16<<10 {
		return c.flushLocked()
	}
	return nil
}

// AppendJSON appends the event's wire line (without the trailing
// newline) to buf — the allocation-free encoder Send uses.
func (ev *Event) AppendJSON(buf []byte) []byte {
	if ev.Seq != 0 {
		buf = append(buf, `{"seq":`...)
		buf = strconv.AppendUint(buf, ev.Seq, 10)
		buf = append(buf, `,"tenant":`...)
	} else {
		buf = append(buf, `{"tenant":`...)
	}
	buf = strconv.AppendInt(buf, int64(ev.Tenant), 10)
	buf = append(buf, `,"type":`...)
	buf = ndjson.AppendString(buf, ev.Type)
	if ev.Stream != 0 {
		buf = append(buf, `,"stream":`...)
		buf = strconv.AppendInt(buf, int64(ev.Stream), 10)
	}
	if ev.User != 0 {
		buf = append(buf, `,"user":`...)
		buf = strconv.AppendInt(buf, int64(ev.User), 10)
	}
	if ev.Install {
		buf = append(buf, `,"install":true`...)
	}
	if ev.CatalogID != "" {
		buf = append(buf, `,"catalog_id":`...)
		buf = ndjson.AppendString(buf, ev.CatalogID)
	}
	return append(buf, '}')
}

// Flush puts any buffered lines on the wire now.
func (c *Conn) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.flushLocked()
}

// tryFlush is the receiver's flush-before-block: it flushes the send
// side only if the sender is not mid-operation. Blocking on sendMu
// here could deadlock the whole pipeline — the sender may be parked
// inside a TCP write (holding sendMu) waiting for the server, the
// server waiting for this receiver to read, and the readable bytes
// sitting in the kernel buffer this call is about to read. A failed
// TryLock means the sender is active right now, so its own write is
// already putting bytes on the wire and no flush is needed.
func (c *Conn) tryFlush() {
	if c.sendMu.TryLock() {
		_ = c.flushLocked()
		c.sendMu.Unlock()
	}
}

func (c *Conn) flushLocked() error {
	if len(c.sendBuf) > 0 {
		// The buffered lines leave as one chunk of the request body. Its
		// size line is formatted here: net/http's chunked writer formats
		// it with fmt, which allocates once per chunk. bufio.Writer keeps
		// its first error, so the last write reports any.
		head := append(strconv.AppendUint(c.chunkHead[:0], uint64(len(c.sendBuf)), 16), "\r\n"...)
		_, _ = c.bw.Write(head)
		_, _ = c.bw.Write(c.sendBuf)
		if _, err := c.bw.WriteString("\r\n"); err != nil {
			return fmt.Errorf("streamclient: %w", err)
		}
		c.sendBuf = c.sendBuf[:0]
	}
	if c.bw.Buffered() == 0 {
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("streamclient: %w", err)
	}
	return nil
}

// Recv returns the next result line decoded, in submission order. The
// first call reads the response headers; a non-200 status is returned
// as an error with the server's message. After CloseSend and the final
// result, Recv reports io.EOF. Before blocking on the socket with
// nothing buffered, Recv flushes the send side — so the
// submit-then-receive pattern needs no explicit Flush.
func (c *Conn) Recv() (Result, error) {
	line, err := c.RecvRaw()
	if err != nil {
		return Result{}, err
	}
	var res Result
	if err := json.Unmarshal(line, &res); err != nil {
		return Result{}, fmt.Errorf("streamclient: bad result line: %w", err)
	}
	return res, nil
}

// recvLine is RecvRaw plus the line's seq and dup mark, read from its
// head without a decode when the line has the canonical shape (see
// resultHead). Any other line is decoded and re-encoded through
// encoding/json, so the returned line always opens with {"seq":N.
func (c *Conn) recvLine() ([]byte, int, bool, error) {
	line, err := c.RecvRaw()
	if err != nil {
		return nil, 0, false, err
	}
	if seq, dup, ok := resultHead(line); ok {
		return line, seq, dup, nil
	}
	var res Result
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, 0, false, fmt.Errorf("streamclient: bad result line: %w", err)
	}
	line, err = json.Marshal(res)
	return line, res.Seq, res.Dup, err
}

// RecvRaw returns the next result line as raw bytes (without the
// trailing newline) — the zero-decode path for load drivers and relays
// that only forward or count lines. The returned slice is valid only
// until the next Recv or RecvRaw call. Flush-before-block behaves as
// in Recv.
func (c *Conn) RecvRaw() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.recvErr != nil {
		return nil, c.recvErr
	}
	if c.resp == nil {
		c.tryFlush()
		resp, err := http.ReadResponse(c.br, &http.Request{Method: http.MethodPost})
		if err != nil {
			return nil, fmt.Errorf("streamclient: %w", err)
		}
		c.resp = resp
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			se := &StatusError{
				Code:    resp.StatusCode,
				Status:  resp.Status,
				Message: string(bytes.TrimSpace(body)),
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
					se.RetryAfter = time.Duration(secs) * time.Second
				}
			}
			c.recvErr = se
			return nil, c.recvErr
		}
		c.bodyr = bufio.NewReader(resp.Body)
	}
	// Flush-before-block, judged on the de-chunked buffer only: raw
	// bytes in c.br can be nothing but chunk framing (the CRLF tail of
	// the last chunk), which will never decode into a line — treating
	// them as "readable" would skip the flush and park this read on a
	// socket that stays silent until the sender's next buffer-full
	// flush. A redundant flush when payload really is in flight only
	// costs an occasional small chunk.
	if c.bodyr.Buffered() == 0 {
		c.tryFlush()
	}
	line, err := c.bodyr.ReadSlice('\n')
	switch err {
	case nil:
		return line[:len(line)-1], nil
	case bufio.ErrBufferFull:
		// A result line longer than the read buffer: stitch it together
		// in the conn's scratch buffer.
		c.lineBuf = append(c.lineBuf[:0], line...)
		for {
			line, err = c.bodyr.ReadSlice('\n')
			c.lineBuf = append(c.lineBuf, line...)
			if err == nil {
				return c.lineBuf[:len(c.lineBuf)-1], nil
			}
			if err != bufio.ErrBufferFull {
				return nil, fmt.Errorf("streamclient: %w", err)
			}
		}
	case io.EOF:
		if len(line) == 0 {
			return nil, io.EOF
		}
		c.lineBuf = append(c.lineBuf[:0], line...)
		return c.lineBuf, nil
	default:
		return nil, fmt.Errorf("streamclient: %w", err)
	}
}

// CloseSend ends the request body (the terminating chunk): the server
// settles the in-flight events, streams out their remaining results,
// and ends the response, after which Recv reports io.EOF. Idempotent.
func (c *Conn) CloseSend() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.sendClosed {
		return nil
	}
	c.sendClosed = true
	if err := c.flushLocked(); err != nil {
		return err
	}
	// The zero-length chunk ends the body, and a blank line its empty
	// trailer.
	if _, err := c.bw.WriteString("0\r\n\r\n"); err != nil {
		return fmt.Errorf("streamclient: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("streamclient: %w", err)
	}
	return nil
}

// Close tears the connection down. Results not yet received are lost
// client-side; the server still applies and settles every event it
// read (a dropped connection leaks nothing fleet-side). Safe after
// CloseSend; for a graceful shutdown call CloseSend, drain Recv until
// io.EOF, then Close.
func (c *Conn) Close() error {
	c.sendMu.Lock()
	c.sendClosed = true
	c.sendMu.Unlock()
	return c.conn.Close()
}
