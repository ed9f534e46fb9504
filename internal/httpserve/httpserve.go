// Package httpserve is the HTTP/JSON ingestion front end over the
// serving API (a thin codec — no state lives in the handlers; the
// cluster session is the whole contract):
//
//	POST /v1/tenants/{id}/events        one event, one response (v2/v3)
//	POST /v1/tenants/{id}/events:batch  a JSON array as one shard message (v3)
//	POST /v1/stream                     persistent NDJSON session (v4)
//	POST /v1/admin/reshard              live shard-count change (v5)
//	GET  /v1/fleet/snapshot             barrier + aggregated fleet state
//	GET  /v1/catalog                    fleet catalog registry state
//
// The three submission endpoints share one event check and one request
// path. Every event passes the protocol's one refusal rule,
// streamclient.CheckEvent (a known type; a catalog_id on every catalog
// event), so a bad event is refused alike everywhere: 400 on the
// per-tenant endpoints, the seq -1 line on a stream, and every event
// is mapped onto the cluster by streamclient's Event.Routed. /events
// parses its body as one stream line (streamclient.ParseEvent) and
// applies it with Cluster.Apply. /v1/stream pipelines its lines onto a
// Cluster.OpenStream session — one Event line in, one Result line out,
// in submission order, with the stream's bounded in-flight window as
// the flow-control point (see repro/streamclient for the wire structs
// and the Go client). :batch decodes its array with a json.Decoder and
// hands it to Cluster.ApplyBatch. The cluster assembles every result
// the same way, and stream result lines, batch elements and the /events
// body share one payload encoder; sentinel errors map onto HTTP status
// codes (writeTransportError).
//
// NewHandlerOpts adds the resilience layer (v6): a write deadline that
// sheds stalled stream consumers, and an overload governor that
// converts block-backpressure into fast 503 + Retry-After when the
// rolling ack p99 crosses a threshold. Exactly-once resume needs no
// option: a stream that claims an X-Stream-Session identity is opened
// as the cluster's session stream, and the cluster dedups its replays
// after reconnects and crashes.
//
// It lives in internal/ so cmd/mmdserve, the root package's ingestion
// benchmarks, and the tests share one handler; cmd/mmdserve is the
// thin main around it.
package httpserve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	videodist "repro"
	"repro/internal/ndjson"
	"repro/streamclient"
)

// errorResponse is the wire form of a failure.
type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler returns the HTTP/JSON ingestion front end over a cluster
// with default resilience options (no shedding, no stream write
// deadline); see NewHandlerOpts.
func NewHandler(c *videodist.Cluster) http.Handler {
	return NewHandlerOpts(c, Options{})
}

// handleEvent applies one event with Cluster.Apply: the body is one
// stream line, parsed and refused by the stream's own parser
// (streamclient.ParseEvent), the tenant rides in the URL, and a failed
// event answers with its transport error's status. The success body is
// a batch element (appendBatchResponse) and a newline. A body over the
// protocol's line cap, streamclient.MaxLine, answers 413.
func (s *server) handleEvent(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	tenant, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad tenant id %q", r.PathValue("id")))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, streamclient.MaxLine))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad event body: %w", err))
		return
	}
	req, err := streamclient.ParseEvent(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Tenant = tenant
	start := time.Now()
	res, err := s.c.Apply(r.Context(), req.Routed())
	if err != nil {
		writeTransportError(w, err)
		return
	}
	s.observe(start)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(appendBatchResponse(nil, res), '\n'))
}

// batchScratch is the per-request working set of the batch endpoint,
// pooled across requests: the decoded events and the hand-encoded
// response. Both are recycled by the handler that took them from the
// pool — nothing here escapes the request: ApplyBatch copies the event
// slice before returning, and w.Write copies the response buffer.
type batchScratch struct {
	events []videodist.ClusterEvent
	out    []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// errBatchElement reports a batch element over the stream protocol's
// line cap. A batch element is the batch's form of a stream line, so
// it gets the same cap, and the endpoint answers 413 as /events does.
var errBatchElement = fmt.Errorf("element over %d bytes (the stream line cap)", streamclient.MaxLine)

// elementReader is the body under decodeBatch's json.Decoder, which
// buffers each element whole: it fails a read past limit, an offset
// the walk moves to streamclient.MaxLine past the start of each
// element (the separator and whitespace before it included).
type elementReader struct {
	r           io.Reader
	read, limit int64
}

func (e *elementReader) Read(p []byte) (int, error) {
	if e.read >= e.limit {
		return 0, errBatchElement
	}
	if rest := e.limit - e.read; int64(len(p)) > rest {
		p = p[:rest]
	}
	n, err := e.r.Read(p)
	e.read += int64(n)
	return n, err
}

// decodeBatch decodes a batch body — a JSON array of stream events, the
// tenant taken from the URL — appending one routed event per element
// to dst. A json.Decoder walks the array element by element into one
// reused decode target, and each element passes the stream's refusal
// rule (streamclient.CheckEvent) as it arrives, so the batch is never
// materialized as a []streamclient.Event. Malformed JSON reports the
// stdlib's message; a refused element reports its index, and one over
// the stream line cap wraps errBatchElement.
func decodeBatch(r io.Reader, dst []videodist.ClusterEvent) ([]videodist.ClusterEvent, error) {
	body := &elementReader{r: r, limit: streamclient.MaxLine}
	dec := json.NewDecoder(body)
	tok, err := dec.Token()
	if err != nil {
		return dst, fmt.Errorf("bad batch body: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return dst, fmt.Errorf("bad batch body: json: cannot unmarshal %v into batch array", tok)
	}
	var req streamclient.Event
	for i := 0; ; i++ {
		body.limit = dec.InputOffset() + streamclient.MaxLine
		if !dec.More() {
			break
		}
		req = streamclient.Event{}
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, errBatchElement) {
				return dst, fmt.Errorf("batch event %d: %w", i, err)
			}
			return dst, fmt.Errorf("bad batch body: %w", err)
		}
		if err := streamclient.CheckEvent(req); err != nil {
			return dst, fmt.Errorf("batch event %d: %w", i, err)
		}
		dst = append(dst, req.Routed())
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return dst, fmt.Errorf("bad batch body: %w", err)
	}
	// Unmarshal rejects trailing data; so does the walk.
	if _, err := dec.Token(); err != io.EOF {
		if errors.Is(err, errBatchElement) {
			return dst, fmt.Errorf("bad batch body: %w", err)
		}
		return dst, errors.New("bad batch body: json: trailing data after batch array")
	}
	return dst, nil
}

// handleBatch applies a JSON array of events as one Cluster.ApplyBatch
// call: the whole sequence crosses the tenant's shard queue as a single
// message, and its catalog arrivals are priced in one registry call.
// The response is one element per event, positionally: the stream's
// result line without its seq, with a per-event error after the
// payload.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	tenant, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad tenant id %q", r.PathValue("id")))
		return
	}
	bs := batchPool.Get().(*batchScratch)
	defer batchPool.Put(bs)
	if bs.events, err = decodeBatch(r.Body, bs.events[:0]); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errBatchElement) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	start := time.Now()
	results, err := s.c.ApplyBatch(r.Context(), tenant, bs.events)
	if err != nil {
		writeTransportError(w, err)
		return
	}
	s.observe(start)
	out := append(bs.out[:0], '[')
	for i, res := range results {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendBatchResponse(out, res)
	}
	bs.out = append(out, ']', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bs.out)
}

// appendResultLine appends one result's NDJSON wire line (trailing
// newline included) to buf: the seq, the type, and either the error or
// the payload — or, for a session stream's dup, the dup mark alone. It
// is the hand-rolled twin of marshaling a streamclient.Result — the
// stream hot path writes tens of thousands of these per second, and
// reflection-based encoding was a top-three cost in the ingestion
// profile.
func appendResultLine(buf []byte, res videodist.StreamResult) []byte {
	if res.Dup {
		return streamclient.AppendDupAck(buf, uint64(res.Seq))
	}
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(res.Seq), 10)
	if typ := streamclient.TypeName(res.Type, res.CatalogID != ""); typ != "" {
		// Wire type names are fixed ASCII tokens; no escaping needed.
		buf = append(buf, `,"type":"`...)
		buf = append(buf, typ...)
		buf = append(buf, '"')
	}
	if res.Err != nil {
		buf = append(buf, `,"error":`...)
		buf = ndjson.AppendString(buf, res.Err.Error())
	} else {
		buf = appendPayload(buf, res)
	}
	return append(buf, "}\n"...)
}

// appendBatchResponse appends one batch response element: the type,
// the payload, and then the per-event error, if any (a batch element
// keeps its payload next to the error). It is also the /events body,
// which has no error member: a failed event answers with its status.
func appendBatchResponse(buf []byte, res videodist.EventResult) []byte {
	buf = append(buf, `{"type":"`...)
	buf = append(buf, streamclient.TypeName(res.Type, res.CatalogID != "")...)
	buf = append(buf, '"')
	buf = appendPayload(buf, res)
	if res.Err != nil {
		buf = append(buf, `,"error":`...)
		buf = ndjson.AppendString(buf, res.Err.Error())
	}
	return append(buf, '}')
}

// appendPayload appends a result's typed payload member (,"offer":{…},
// ,"catalog":{…} and so on) — the one payload encoder behind stream
// lines, batch elements and the /events body. Decoded values must stay
// identical to the stdlib encoding of the same result (the codec tests
// pin this), so slice fields follow stdlib semantics exactly: nil
// marshals as null on always-emitted fields and empty slices are
// dropped on omitempty fields.
func appendPayload(buf []byte, res videodist.StreamResult) []byte {
	switch {
	case res.CatalogID != "":
		buf = append(buf, `,"catalog":`...)
		buf = appendCatalogResult(buf, res.Catalog)
	case res.Type == videodist.ClusterStreamArrival:
		buf = append(buf, `,"offer":{"Accepted":`...)
		buf = strconv.AppendBool(buf, res.Offer.Accepted)
		buf = append(buf, `,"Subscribers":`...)
		buf = ndjson.AppendInts(buf, res.Offer.Subscribers)
		buf = append(buf, `,"Utility":`...)
		buf = ndjson.AppendFloat(buf, res.Offer.Utility)
		buf = append(buf, '}')
	case res.Type == videodist.ClusterStreamDeparture:
		buf = append(buf, `,"depart":{"Removed":`...)
		buf = strconv.AppendBool(buf, res.Depart.Removed)
		buf = append(buf, `,"Subscribers":`...)
		buf = ndjson.AppendInts(buf, res.Depart.Subscribers)
		buf = append(buf, '}')
	case res.Type == videodist.ClusterUserLeave, res.Type == videodist.ClusterUserJoin:
		buf = append(buf, `,"churn":{"Changed":`...)
		buf = strconv.AppendBool(buf, res.Churn.Changed)
		buf = append(buf, `,"Streams":`...)
		buf = ndjson.AppendInts(buf, res.Churn.Streams)
		buf = append(buf, '}')
	case res.Type == videodist.ClusterResolve:
		buf = append(buf, `,"resolve":{"Installed":`...)
		buf = strconv.AppendBool(buf, res.Resolve.Installed)
		buf = append(buf, `,"OnlineValue":`...)
		buf = ndjson.AppendFloat(buf, res.Resolve.OnlineValue)
		buf = append(buf, `,"OfflineValue":`...)
		buf = ndjson.AppendFloat(buf, res.Resolve.OfflineValue)
		buf = append(buf, '}')
	}
	return buf
}

// appendCatalogResult appends a CatalogResult object following its
// json tags (refs always present, the rest omitempty).
func appendCatalogResult(buf []byte, v videodist.CatalogResult) []byte {
	buf = append(buf, `{"refs":`...)
	buf = strconv.AppendInt(buf, int64(v.Refs), 10)
	if v.Admitted {
		buf = append(buf, `,"admitted":true`...)
	}
	if v.Removed {
		buf = append(buf, `,"removed":true`...)
	}
	if len(v.Subscribers) > 0 {
		buf = append(buf, `,"subscribers":`...)
		buf = ndjson.AppendInts(buf, v.Subscribers)
	}
	if v.Utility != 0 {
		buf = append(buf, `,"utility":`...)
		buf = ndjson.AppendFloat(buf, v.Utility)
	}
	if len(v.SharedWith) > 0 {
		buf = append(buf, `,"shared_with":`...)
		buf = ndjson.AppendInts(buf, v.SharedWith)
	}
	if v.CostScale != 0 {
		buf = append(buf, `,"cost_scale":`...)
		buf = ndjson.AppendFloat(buf, v.CostScale)
	}
	if v.FullCost != 0 {
		buf = append(buf, `,"full_cost":`...)
		buf = ndjson.AppendFloat(buf, v.FullCost)
	}
	if v.CostCharged != 0 {
		buf = append(buf, `,"cost_charged":`...)
		buf = ndjson.AppendFloat(buf, v.CostCharged)
	}
	if v.Evicted {
		buf = append(buf, `,"evicted":true`...)
	}
	return append(buf, '}')
}

// streamWindow is the /v1/stream in-flight window. It is deliberately
// much deeper than the StreamOptions default: under the WAL's group
// commit the window is what amortizes the fsync — every event applied
// while the committer's previous fsync was in flight rides the next
// one, so the window must cover more events than one disk-sync latency
// admits (~1.3k at measured rates) or the pipeline stalls on the disk
// instead of the CPU. The window costs two pointer slots per entry up
// front; the in-flight entries themselves (about 280 B each) are
// carved in chunks only as deep as the connection actually gets.
const streamWindow = 16384

// streamWriteMax bounds one /v1/stream response write: a burst of ready
// results goes out in pieces of at most this many bytes plus the line
// that crossed it, so the writer's buffer stays this size instead of
// growing to a full window's lines for the life of the connection.
const streamWriteMax = 64 << 10

// handleStream is the serving API v4 endpoint: a persistent NDJSON
// session over one HTTP request. The request body is read line by line
// and pipelined onto a Cluster.OpenStream session; a writer goroutine
// streams each settled result back as its own flushed NDJSON line, in
// submission order. The stream's bounded in-flight window is the flow
// control: a client that stops reading results eventually parks the
// reader loop (window full), which parks the TCP receive window —
// backpressure end to end with no unbounded buffering.
//
// Lines are read with a per-connection streamclient.Parser, so a
// catalog ID the connection has named before costs no allocation.
// Data-level failures (unknown tenant, unknown catalog stream) come
// back in-band as per-line errors; a protocol violation (malformed
// line, a line streamclient.CheckEvent refuses, or a line over
// streamclient.MaxLine) stops reading, drains the in-flight results,
// and appends a final Error-only line. A dropped client
// cancels the request context; every event already submitted still
// applies and settles on its shard worker (catalog references
// included), so disconnects leak nothing.
//
// With an X-Stream-Session header the stream is that session's
// (StreamOptions.Session) and each line's seq its event's SessionSeq:
// the cluster refuses a seq out of order (the seq -1 line), answers a
// replay of an applied event with a dup, {"seq":N,"dup":true}, in order
// with the other results, and holds the session until the handler
// ends.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.gov != nil && s.gov.shedding() {
		// A shed stream refuses the connection outright. Connection:
		// close (plus an eager flush) is what actually gets the 503 on
		// the wire: the chunked request body is never consumed, and
		// net/http holds the buffered response while it waits to drain
		// the body for connection reuse — a wait that would deadlock
		// against a client which won't close its send side before it
		// has seen a status line.
		w.Header().Set("Connection", "close")
		s.writeShed(w)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		return
	}
	sc, err := s.c.OpenStream(videodist.StreamOptions{
		Window:  streamWindow,
		Session: r.Header.Get("X-Stream-Session"),
	})
	if err != nil {
		writeTransportError(w, err)
		return
	}
	defer sc.Close()
	rc := http.NewResponseController(w)
	// HTTP/1 servers half-close by default; the stream needs to read
	// request-body lines while writing response lines. (Errors mean the
	// transport is already duplex or cannot be — either way we proceed.)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// stopReader unblocks a reader parked in ReadLine or Submit so the
	// handler can finish — unless the reader is already done. Once the
	// body hit EOF, net/http reads the connection in the background; a
	// past read deadline fails that read, which cancels the
	// connection's base context and every later request on a keep-alive
	// connection with it.
	var readMu sync.Mutex
	readDone := false
	stopReader := func() {
		cancel()
		readMu.Lock()
		if !readDone {
			_ = rc.SetReadDeadline(time.Now())
		}
		readMu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Writing is over: clean EOF, dead client, or write timeout.
		defer stopReader()
		var buf []byte
		// send writes buf out, flushing it if asked, empties it, and
		// reports whether the writer goes on.
		send := func(flush bool) bool {
			ok := s.writeStream(w, rc, buf, flush)
			buf = buf[:0]
			return ok
		}
		for {
			res, err := sc.Recv(ctx)
			if err != nil {
				// io.EOF after CloseSend, or the client went away.
				return
			}
			// Adaptive flushing: batch every result that has already
			// settled into one burst — a single syscall carries many
			// lines under load — and flush exactly when nothing more is
			// ready, because then a client may be blocked on the lines
			// written so far. A burst past streamWriteMax is written out
			// unflushed as it grows.
			buf = appendResultLine(buf, res)
			for {
				if len(buf) > streamWriteMax && !send(false) {
					return
				}
				res, ok := sc.TryRecv()
				if !ok {
					break
				}
				buf = appendResultLine(buf, res)
			}
			if !send(true) {
				return
			}
		}
	}()

	var protoErr error
	body := bufio.NewReaderSize(r.Body, 32<<10)
	var parser streamclient.Parser
	var scratch []byte
	for {
		line, err := ndjson.ReadLine(body, &scratch, streamclient.MaxLine)
		if errors.Is(err, ndjson.ErrLineTooLong) {
			protoErr = err
			break
		}
		if len(line) > 0 {
			req, perr := parser.Parse(line)
			if perr != nil {
				protoErr = perr
				break
			}
			ev := req.Routed()
			ev.SessionSeq = req.Seq
			if serr := sc.Submit(ctx, ev); serr != nil {
				// A session seq out of order ends the stream as a
				// protocol error; otherwise the window reservation failed
				// (client gone or cluster closed). Either way the
				// in-flight results still drain below.
				if errors.Is(serr, videodist.ErrSessionSeq) {
					protoErr = serr
				}
				break
			}
		}
		if err != nil {
			// io.EOF is the client's CloseSend; anything else is a dead
			// connection.
			break
		}
	}
	readMu.Lock()
	readDone = true
	readMu.Unlock()
	sc.CloseSend()
	<-done
	if protoErr != nil {
		// All settled results are out; tell the client why the stream
		// ended early (an Error-only line, seq -1).
		_ = json.NewEncoder(w).Encode(streamclient.Result{Seq: -1, Error: protoErr.Error()})
		_ = rc.Flush()
	}
}

// writeStream writes response lines under the configured write
// deadline, and flushes them when flush is set. False means the client
// is gone or stopped reading past the deadline — the transport is done
// for.
func (s *server) writeStream(w http.ResponseWriter, rc *http.ResponseController, buf []byte, flush bool) bool {
	if s.opts.StreamWriteTimeout > 0 {
		_ = rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout))
	}
	if _, err := w.Write(buf); err != nil {
		return false
	}
	return !flush || rc.Flush() == nil
}

// reshardRequest is the wire form of POST /v1/admin/reshard.
type reshardRequest struct {
	Shards int `json:"shards"`
}

// reshardResponse reports the shard count the fleet actually runs
// after the handoff (Reshard clamps to the tenant count).
type reshardResponse struct {
	Shards int `json:"shards"`
}

// handleReshard drives a live Cluster.Reshard: the fleet's tenants move
// to the new shard workers at a barrier, and the response reports the
// shard count the fleet runs once the handoff is done. It works on any
// fleet, with or without a WAL.
func handleReshard(c *videodist.Cluster, w http.ResponseWriter, r *http.Request) {
	var req reshardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad reshard body: %w", err))
		return
	}
	if req.Shards <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reshard needs a positive shard count, got %d", req.Shards))
		return
	}
	if err := c.Reshard(req.Shards); err != nil {
		writeTransportError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, reshardResponse{Shards: c.NumShards()})
}

// handleCatalog serves the fleet catalog snapshot; 404 when the fleet
// was built without a catalog.
func handleCatalog(c *videodist.Cluster, w http.ResponseWriter) {
	snap, err := c.CatalogSnapshot()
	if err != nil {
		writeTransportError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func handleSnapshot(c *videodist.Cluster, w http.ResponseWriter) {
	fs, err := c.Snapshot()
	if err != nil {
		writeTransportError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fs)
}

// writeTransportError maps the sentinel error taxonomy onto HTTP
// status codes.
func writeTransportError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, videodist.ErrUnknownTenant),
		errors.Is(err, videodist.ErrNoCatalog),
		errors.Is(err, videodist.ErrUnknownCatalogStream):
		code = http.StatusNotFound
	case errors.Is(err, videodist.ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, videodist.ErrClosed),
		errors.Is(err, videodist.ErrNotDurable):
		code = http.StatusServiceUnavailable
	case errors.Is(err, videodist.ErrCanceled):
		code = http.StatusRequestTimeout
	}
	writeError(w, code, err)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
