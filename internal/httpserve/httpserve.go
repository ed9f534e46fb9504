// Package httpserve is the HTTP/JSON ingestion front end over the
// serving API (a thin codec — no state lives in the handlers; the
// cluster session is the whole contract):
//
//	POST /v1/tenants/{id}/events        one event, one response (v2/v3)
//	POST /v1/tenants/{id}/events:batch  a JSON array as one shard message (v3)
//	POST /v1/stream                     persistent NDJSON session (v4)
//	POST /v1/admin/reshard              live shard-count change (v5, needs a WAL)
//	GET  /v1/fleet/snapshot             barrier + aggregated fleet state
//	GET  /v1/catalog                    fleet catalog registry state
//
// Events decode into the typed per-operation calls and the typed
// results marshal straight back; sentinel errors map onto HTTP status
// codes (writeTransportError). The /v1/stream endpoint upgrades the
// request to a full-duplex NDJSON session over Cluster.OpenStream: one
// Event line in, one Result line out, in submission order, with the
// stream's bounded in-flight window as the flow-control point (see
// repro/streamclient for the wire structs and the Go client).
//
// NewHandlerOpts adds the resilience layer (v6): exactly-once resume
// for streams that claim an X-Stream-Session identity (a WAL-backed
// seq watermark dedups replays after reconnects and crashes), a write
// deadline that sheds stalled stream consumers, and an overload
// governor that converts block-backpressure into fast 503 +
// Retry-After when the rolling ack p99 crosses a threshold.
//
// It lives in internal/ so cmd/mmdserve, the benchmarks
// (internal/benchkit), and the tests share one handler; cmd/mmdserve
// is the thin main around it.
package httpserve

import (
	"bufio"
	"bytes"
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

// eventRequest is the wire form of one tenant event on the per-tenant
// endpoints (the tenant index rides in the URL).
type eventRequest struct {
	// Type selects the operation: "offer", "depart", "leave", "join",
	// "resolve", "catalog-offer", or "catalog-depart".
	Type string `json:"type"`
	// Stream is the stream index (offer, depart).
	Stream int `json:"stream,omitempty"`
	// User is the gateway index (leave, join).
	User int `json:"user,omitempty"`
	// Install asks a resolve to install the offline assignment.
	Install bool `json:"install,omitempty"`
	// CatalogID is the fleet-wide stream identity (catalog-offer,
	// catalog-depart).
	CatalogID string `json:"catalog_id,omitempty"`
}

// eventResponse is the wire form of a typed result; exactly the field
// matching the request type is set. Error carries a per-event failure
// inside a batch response (the batch itself still succeeds).
type eventResponse struct {
	Type    string                   `json:"type"`
	Offer   *videodist.OfferResult   `json:"offer,omitempty"`
	Depart  *videodist.DepartResult  `json:"depart,omitempty"`
	Churn   *videodist.ChurnResult   `json:"churn,omitempty"`
	Resolve *videodist.ResolveResult `json:"resolve,omitempty"`
	Catalog *videodist.CatalogResult `json:"catalog,omitempty"`
	Error   string                   `json:"error,omitempty"`
}

// errorResponse is the wire form of a failure.
type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler returns the HTTP/JSON ingestion front end over a cluster
// with default resilience options (no shedding, no stream write
// deadline, no recovered session watermarks); see NewHandlerOpts.
func NewHandler(c *videodist.Cluster) http.Handler {
	return NewHandlerOpts(c, Options{})
}

func (s *server) handleEvent(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	c := s.c
	tenant, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad tenant id %q", r.PathValue("id")))
		return
	}
	var req eventRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad event body: %w", err))
		return
	}
	ctx := r.Context()
	start := time.Now()
	resp := eventResponse{Type: req.Type}
	switch req.Type {
	case "offer":
		res, err := c.OfferStream(ctx, tenant, req.Stream)
		if err != nil {
			writeTransportError(w, err)
			return
		}
		resp.Offer = &res
	case "depart":
		res, err := c.DepartStream(ctx, tenant, req.Stream)
		if err != nil {
			writeTransportError(w, err)
			return
		}
		resp.Depart = &res
	case "leave":
		res, err := c.UserLeave(ctx, tenant, req.User)
		if err != nil {
			writeTransportError(w, err)
			return
		}
		resp.Churn = &res
	case "join":
		res, err := c.UserJoin(ctx, tenant, req.User)
		if err != nil {
			writeTransportError(w, err)
			return
		}
		resp.Churn = &res
	case "resolve":
		res, err := c.Resolve(ctx, tenant, videodist.ResolveOptions{Install: req.Install})
		if err != nil {
			writeTransportError(w, err)
			return
		}
		resp.Resolve = &res
	case "catalog-offer":
		res, err := c.OfferCatalogStream(ctx, tenant, videodist.CatalogID(req.CatalogID))
		if err != nil {
			writeTransportError(w, err)
			return
		}
		resp.Catalog = &res
	case "catalog-depart":
		res, err := c.DepartCatalogStream(ctx, tenant, videodist.CatalogID(req.CatalogID))
		if err != nil {
			writeTransportError(w, err)
			return
		}
		resp.Catalog = &res
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown event type %q", req.Type))
		return
	}
	s.observe(start)
	writeJSON(w, http.StatusOK, resp)
}

// batchEventTypes maps the wire names accepted by the batch endpoint to
// routed event types. Catalog events are first-class batch citizens:
// ApplyBatch prices all of a batch's catalog arrivals in one registry
// round trip and the shard worker settles them in one more, so a
// catalog offer in a batch is cheaper, not forbidden, relative to the
// per-event endpoint.
var batchEventTypes = map[string]videodist.ClusterEvent{
	"offer":          {Type: videodist.ClusterStreamArrival},
	"depart":         {Type: videodist.ClusterStreamDeparture},
	"leave":          {Type: videodist.ClusterUserLeave},
	"join":           {Type: videodist.ClusterUserJoin},
	"resolve":        {Type: videodist.ClusterResolve},
	"catalog-offer":  {Type: videodist.ClusterStreamArrival},
	"catalog-depart": {Type: videodist.ClusterStreamDeparture},
}

// batchScratch is the per-request working set of the batch endpoint,
// pooled across requests: the raw body, the decoded events, the wire
// type name per event (interned tokens on the fast path, so storing
// them allocates nothing), the stdlib-fallback decode target, and the
// hand-encoded response bytes. Every field is recycled by the handler
// that took it from the pool (the receiver-recycles rule) — nothing
// here escapes the request: ApplyBatch copies the event slice before
// returning, and w.Write copies the response buffer.
type batchScratch struct {
	body   []byte
	events []videodist.ClusterEvent
	types  []string
	req    eventRequest // fallback decode target, reused per element
	rd     bytes.Reader // fallback decoder source, reset onto body
	out    []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// readFullBody reads r to EOF into buf's backing array, growing it only
// when the request is larger than any the scratch has seen.
func readFullBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// appendBatchEvent validates and appends one decoded wire event to the
// scratch, shared by the fast and fallback parse paths so both produce
// identical routed events and identical rejection messages.
func appendBatchEvent(s *batchScratch, typ string, stream, user int, install bool, catalogID string) error {
	i := len(s.events)
	ev, ok := batchEventTypes[typ]
	if !ok {
		return fmt.Errorf("batch event %d: unknown event type %q", i, typ)
	}
	if typ == "catalog-offer" || typ == "catalog-depart" {
		if catalogID == "" {
			return fmt.Errorf("batch event %d: %s needs catalog_id", i, typ)
		}
		ev.CatalogID = videodist.CatalogID(catalogID)
	}
	ev.Stream, ev.User, ev.Install = stream, user, install
	s.events = append(s.events, ev)
	s.types = append(s.types, typ)
	return nil
}

// fastParseBatch scans a canonical batch body — a JSON array of the
// same canonical flat objects the stream's line scanner accepts — into
// the scratch without allocating (catalog IDs excepted; those strings
// outlive the buffer). ok false means "not provably canonical — rerun
// through the stdlib decoder", never an error of its own; err reports a
// semantic rejection (unknown type, missing catalog_id) found on a body
// the scanner did fully accept.
func fastParseBatch(body []byte, s *batchScratch) (ok bool, err error) {
	i, n := 0, len(body)
	ws := func() {
		for i < n {
			if ch := body[i]; ch != ' ' && ch != '\t' && ch != '\r' && ch != '\n' {
				return
			}
			i++
		}
	}
	ws()
	if i >= n || body[i] != '[' {
		return false, nil
	}
	i++
	ws()
	if i < n && body[i] == ']' {
		i++
		ws()
		return i == n, nil
	}
	for {
		ws()
		if i >= n || body[i] != '{' {
			return false, nil
		}
		start := i
		// Find the element's closing brace: canonical objects are flat
		// with escape-free strings, so a string flag is enough state —
		// nesting or escapes mean "not canonical", bail to the stdlib.
		i++
		inStr := false
		for i < n {
			switch ch := body[i]; {
			case inStr:
				if ch == '\\' {
					return false, nil
				}
				inStr = ch != '"'
			case ch == '"':
				inStr = true
			case ch == '{' || ch == '[':
				return false, nil
			case ch == '}':
				goto closed
			}
			i++
		}
		return false, nil
	closed:
		i++
		req, elemOK := streamclient.ParseCanonicalEvent(body[start:i])
		if !elemOK {
			return false, nil
		}
		if err := appendBatchEvent(s, req.Type, req.Stream, req.User, req.Install, req.CatalogID); err != nil {
			return true, err
		}
		ws()
		if i < n && body[i] == ',' {
			i++
			continue
		}
		if i < n && body[i] == ']' {
			i++
			ws()
			return i == n, nil
		}
		return false, nil
	}
}

// decodeBatchFallback is the stdlib half of the batch codec, for
// exotic-but-valid JSON the canonical scanner bailed on: a
// json.Decoder walks the array token by token, decoding each element
// into the scratch's single reused eventRequest and appending it
// immediately — the batch is never materialized as an []eventRequest,
// so a 10k-event body costs one decode target, not 10k. badJSON
// reports malformed JSON (the stdlib's message, like the old
// whole-array Unmarshal); semantic reports a body that parsed but was
// rejected (unknown type, missing catalog_id).
func decodeBatchFallback(bs *batchScratch) (badJSON, semantic error) {
	bs.rd.Reset(bs.body)
	dec := json.NewDecoder(&bs.rd)
	tok, err := dec.Token()
	if err != nil {
		return err, nil
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("json: cannot unmarshal %v into batch array", tok), nil
	}
	for dec.More() {
		bs.req = eventRequest{}
		if err := dec.Decode(&bs.req); err != nil {
			return err, nil
		}
		if err := appendBatchEvent(bs, bs.req.Type, bs.req.Stream, bs.req.User, bs.req.Install, bs.req.CatalogID); err != nil {
			return nil, err
		}
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return err, nil
	}
	// Unmarshal rejected trailing data; so does the streaming decoder.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("json: trailing data after batch array"), nil
	}
	return nil, nil
}

// appendBatchResponse appends one event's eventResponse object exactly
// as the stdlib would encode it (field order, omitempty semantics), so
// decoded responses stay identical to the pre-pooling handler's — the
// batch parity test pins this against the single-event endpoint.
func appendBatchResponse(buf []byte, typ string, res videodist.EventResult) []byte {
	buf = append(buf, `{"type":`...)
	buf = ndjson.AppendString(buf, typ)
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
	if res.Err != nil {
		buf = append(buf, `,"error":`...)
		buf = ndjson.AppendString(buf, res.Err.Error())
	}
	return append(buf, '}')
}

// handleBatch applies a JSON array of events as one Cluster.ApplyBatch
// call: the whole sequence crosses the tenant's shard queue as a single
// message, so remote callers get the same arrival coalescing the
// RunWorkload replay path enjoys. The response is one eventResponse per
// event, positionally.
//
// The codec is the batch twin of the stream endpoint's: a pooled
// scratch carries the body, the decoded events, and the hand-encoded
// response across requests, so a warm steady state decodes and encodes
// a canonical batch without allocating in the handler (the stdlib
// decoder remains the fallback for exotic-but-valid JSON). Before the
// pooling, each batch request paid a fresh decoder, three fresh slices,
// one heap escape per result, and a reflective marshal of the whole
// response.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	c := s.c
	tenant, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad tenant id %q", r.PathValue("id")))
		return
	}
	bs := batchPool.Get().(*batchScratch)
	defer batchPool.Put(bs)
	bs.body, err = readFullBody(r.Body, bs.body[:0])
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad batch body: %w", err))
		return
	}
	bs.events, bs.types = bs.events[:0], bs.types[:0]
	ok, perr := fastParseBatch(bs.body, bs)
	if !ok && perr == nil {
		bs.events, bs.types = bs.events[:0], bs.types[:0]
		var badJSON error
		badJSON, perr = decodeBatchFallback(bs)
		if badJSON != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad batch body: %w", badJSON))
			return
		}
	}
	if perr != nil {
		writeError(w, http.StatusBadRequest, perr)
		return
	}
	start := time.Now()
	results, err := c.ApplyBatch(r.Context(), tenant, bs.events)
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
		out = appendBatchResponse(out, bs.types[i], res)
	}
	out = append(out, ']', '\n')
	bs.out = out
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// parseStreamEvent decodes one wire line with the protocol's shared
// parser (streamclient.ParseEvent: allocation-free on the canonical
// shape every known client emits, encoding/json for anything else) and
// routes it.
func parseStreamEvent(line []byte) (videodist.ClusterEvent, uint64, error) {
	req, err := streamclient.ParseEvent(line)
	if err != nil {
		return videodist.ClusterEvent{}, 0, err
	}
	ev, err := streamEvent(req)
	return ev, req.Seq, err
}

// streamEvent maps one wire line onto a routed cluster event. Catalog
// events carry their fleet identity through: the stream's Submit runs
// the catalog acquire protocol and the shard worker settles the
// reference in FIFO order (the batch endpoint prices its catalog
// events the same way, one registry round trip per batch).
func streamEvent(req streamclient.Event) (videodist.ClusterEvent, error) {
	ev, ok := batchEventTypes[req.Type]
	if !ok {
		return videodist.ClusterEvent{}, fmt.Errorf("unknown event type %q", req.Type)
	}
	if req.Type == "catalog-offer" || req.Type == "catalog-depart" {
		ev.CatalogID = videodist.CatalogID(req.CatalogID)
	}
	ev.Tenant, ev.Stream, ev.User, ev.Install = req.Tenant, req.Stream, req.User, req.Install
	return ev, nil
}

// wireTypeName maps a routed type (plus the catalog mark) back onto
// its wire name.
func wireTypeName(res videodist.StreamResult) string {
	switch {
	case res.CatalogID != "" && res.Type == videodist.ClusterStreamArrival:
		return "catalog-offer"
	case res.CatalogID != "" && res.Type == videodist.ClusterStreamDeparture:
		return "catalog-depart"
	case res.Type == videodist.ClusterStreamArrival:
		return "offer"
	case res.Type == videodist.ClusterStreamDeparture:
		return "depart"
	case res.Type == videodist.ClusterUserLeave:
		return "leave"
	case res.Type == videodist.ClusterUserJoin:
		return "join"
	case res.Type == videodist.ClusterResolve:
		return "resolve"
	}
	return ""
}

// appendResultLine appends one result's NDJSON wire line (trailing
// newline included) to buf. It is the hand-rolled twin of marshaling a
// streamclient.Result — the stream hot path writes tens of thousands
// of these per second, and reflection-based encoding was a top-three
// cost in the ingestion profile. Decoded values must stay identical to
// the stdlib encoding of the same result (the HTTP parity test pins
// this), so slice fields follow stdlib semantics exactly: nil
// marshals as null on always-emitted fields and empty slices are
// dropped on omitempty fields.
func appendResultLine(buf []byte, res videodist.StreamResult) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(res.Seq), 10)
	if typ := wireTypeName(res); typ != "" {
		// Wire type names are fixed ASCII tokens; no escaping needed.
		buf = append(buf, `,"type":"`...)
		buf = append(buf, typ...)
		buf = append(buf, '"')
	}
	switch {
	case res.Err != nil:
		buf = append(buf, `,"error":`...)
		buf = ndjson.AppendString(buf, res.Err.Error())
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
	return append(buf, "}\n"...)
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
// instead of the CPU. Memory cost is two pointer slots per entry.
const streamWindow = 16384

// handleStream is the serving API v4 endpoint: a persistent NDJSON
// session over one HTTP request. The request body is read line by line
// and pipelined onto a Cluster.OpenStream session; a writer goroutine
// streams each settled result back as its own flushed NDJSON line, in
// submission order. The stream's bounded in-flight window is the flow
// control: a client that stops reading results eventually parks the
// reader loop (window full), which parks the TCP receive window —
// backpressure end to end with no unbounded buffering.
//
// Data-level failures (unknown tenant, unknown catalog stream) come
// back in-band as per-line errors; a protocol violation (malformed
// line, unknown event type) stops reading, drains the in-flight
// results, and appends a final Error-only line. A dropped client
// cancels the request context; every event already submitted still
// applies and settles on its shard worker (catalog references
// included), so disconnects leak nothing.
//
// With an X-Stream-Session header the connection claims a resumable
// identity (exactly-once resume): every line must then carry a
// client-assigned contiguous 1-based seq, result seqs come back in the
// client's numbering, and the session's watermark — the highest seq
// applied — dedups replays after a reconnect. A replayed line at or
// below the watermark is acknowledged with a {"seq":N,"dup":true}
// line instead of being re-applied; a gap past watermark+1 is a
// protocol error (the client lost events it never sent). Connections
// claiming the same session serialize: a resume waits until the
// previous handler has drained every settled result, because the drain
// is what completes the watermark. For the same reason the
// session-mode writer keeps draining (writes disabled) after the
// client dies — an applied event must advance the watermark before the
// next resume reads it, or the replay would double-apply.
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
	sid := r.Header.Get("X-Stream-Session")
	var sess *session
	var base uint64 // client seq of the first event this conn may submit
	if sid != "" {
		sess = s.sessions.get(sid)
		sess.connMu.Lock()
		defer sess.connMu.Unlock()
		base = sess.watermark.Load() + 1
	}
	sc, err := s.c.OpenStream(videodist.StreamOptions{Window: streamWindow})
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
	// Session mode drains to completion regardless of the client: the
	// watermark must cover every applied event before the handler exits
	// (and the next resume's dedup reads it). The drain is bounded — the
	// reader stops submitting once ctx dies, so at most the in-flight
	// window settles.
	recvCtx := ctx
	if sess != nil {
		recvCtx = context.Background()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			// Writing is over (clean EOF, dead client, or write timeout):
			// unblock a reader parked in ReadLine or Submit so the
			// handler can finish.
			cancel()
			_ = rc.SetReadDeadline(time.Now())
		}()
		var buf []byte
		writeOK := true
		for {
			res, err := sc.Recv(recvCtx)
			if err != nil {
				// io.EOF after CloseSend, or the client went away.
				return
			}
			// Adaptive flushing: batch every result that has already
			// settled into one write — a single syscall carries many
			// lines under load — and flush exactly when nothing more is
			// ready, because then a client may be blocked on the lines
			// written so far. The burst is bounded by the stream's
			// in-flight window.
			if sess != nil {
				res.Seq = int(base + uint64(res.Seq))
				sess.watermark.Store(uint64(res.Seq))
			}
			buf = appendResultLine(buf[:0], res)
			for {
				res, ok := sc.TryRecv()
				if !ok {
					break
				}
				if sess != nil {
					res.Seq = int(base + uint64(res.Seq))
					sess.watermark.Store(uint64(res.Seq))
				}
				buf = appendResultLine(buf, res)
			}
			if !writeOK {
				continue
			}
			if !s.writeStream(w, rc, buf) {
				if sess == nil {
					return
				}
				// Keep draining with writes disabled — every settled
				// result still advances the watermark above — but stop
				// the reader now: no new events ride a dead response.
				writeOK = false
				cancel()
				_ = rc.SetReadDeadline(time.Now())
			}
		}
	}()

	var protoErr error
	body := bufio.NewReaderSize(r.Body, 32<<10)
	var scratch []byte
	var dupBuf []byte
	lastSeq := uint64(0) // last wire seq read on this conn (session mode)
	for {
		line, err := ndjson.ReadLine(body, &scratch)
		if len(line) > 0 {
			ev, seq, perr := parseStreamEvent(line)
			if perr != nil {
				protoErr = perr
				break
			}
			dup := false
			if sess != nil {
				switch {
				case seq == 0:
					perr = fmt.Errorf("session stream: line missing seq")
				case lastSeq == 0 && seq > base:
					perr = fmt.Errorf("session stream: seq %d skips past watermark %d", seq, base-1)
				case lastSeq != 0 && seq != lastSeq+1:
					perr = fmt.Errorf("session stream: seq %d after %d breaks contiguity", seq, lastSeq)
				}
				if perr != nil {
					protoErr = perr
					break
				}
				lastSeq = seq
				dup = seq < base
				ev.Session, ev.SessionSeq = sid, seq
			}
			if dup {
				// Replay of an already-applied event: acknowledge without
				// re-applying. Dups are a contiguous preamble (contiguity
				// forces them before the first submit), so the writer
				// goroutine has nothing in flight yet and the response is
				// ours to write. A failed write means the client is dying;
				// the body read below will notice.
				dupBuf = append(dupBuf[:0], `{"seq":`...)
				dupBuf = strconv.AppendUint(dupBuf, seq, 10)
				dupBuf = append(dupBuf, `,"dup":true}`+"\n"...)
				_ = s.writeStream(w, rc, dupBuf)
			} else if serr := sc.Submit(ctx, ev); serr != nil {
				// Window reservation failed (client gone or cluster
				// closed); the in-flight results still drain below.
				break
			}
		}
		if err != nil {
			// io.EOF is the client's CloseSend; anything else is a dead
			// connection.
			break
		}
	}
	sc.CloseSend()
	<-done
	if protoErr != nil {
		// All settled results are out; tell the client why the stream
		// ended early (an Error-only line, seq -1).
		_ = json.NewEncoder(w).Encode(streamclient.Result{Seq: -1, Error: protoErr.Error()})
		_ = rc.Flush()
	}
}

// writeStream writes one burst of response lines under the configured
// write deadline. False means the client is gone or stopped reading
// past the deadline — the transport is done for.
func (s *server) writeStream(w http.ResponseWriter, rc *http.ResponseController, buf []byte) bool {
	if s.opts.StreamWriteTimeout > 0 {
		_ = rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout))
	}
	if _, err := w.Write(buf); err != nil {
		return false
	}
	return rc.Flush() == nil
}

// reshardRequest is the wire form of POST /v1/admin/reshard.
type reshardRequest struct {
	Shards int `json:"shards"`
}

// reshardResponse reports the shard count the fleet actually runs
// after the cutover (Reshard clamps to the tenant count).
type reshardResponse struct {
	Shards int `json:"shards"`
}

// handleReshard drives a live Cluster.Reshard: the fleet keeps serving
// while a shadow layout replays the durability log, and the response
// arrives only after the make-before-break cutover verified the new
// layout's renders byte-identical to the old. 409 when the fleet has
// no WAL (resharding replays the log, so there must be one).
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
		if errors.Is(err, videodist.ErrNoWAL) {
			writeError(w, http.StatusConflict, err)
			return
		}
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
