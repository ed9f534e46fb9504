package remote

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/catalog"
	"repro/internal/ndjson"
)

// NewHandler serves reg on the catalog wire: POST /v1/catalog/wire is
// the full-duplex NDJSON request/response channel (one reply line per
// request line, flushed per reply, in request order), and
// GET /v1/catalog returns the registry snapshot as JSON — the same
// shape a single-process mmdserve serves, so fleet tooling reads the
// catalog service and a node interchangeably.
//
// Each wire connection applies its requests to the registry in its own
// handler goroutine, one after another (a node's single Client
// serializes them already); requests from different connections
// interleave at the registry's lock, exactly as different shard
// workers interleave in-process.
func NewHandler(reg catalog.Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+WirePath, func(w http.ResponseWriter, r *http.Request) {
		serveWire(reg, w, r)
	})
	mux.HandleFunc("GET /v1/catalog", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if snap == nil {
			http.Error(w, `{"error":"catalog closed"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
	})
	return mux
}

// serveWire drives one wire connection: request line in, reply line
// out, flush, repeat until the client closes its send side.
func serveWire(reg catalog.Service, w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// HTTP/1 servers half-close by default; the wire reads request lines
	// while writing reply lines (errors mean the transport is already
	// duplex or cannot be — either way we proceed).
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	br := bufio.NewReaderSize(r.Body, 64<<10)
	c := &wireConn{reg: reg}
	var scratch []byte
	for {
		// Uncapped: the peer is a fleet node, and a settle-batch line
		// grows with the batch it settles.
		line, err := ndjson.ReadLine(br, &scratch, 0)
		if err != nil && (err != io.EOF || len(line) == 0) {
			return
		}
		if derr := c.decodeReq(line); derr != nil {
			c.resp = wireResp{Error: fmt.Sprintf("bad request line: %v", derr)}
			c.write(w)
			_ = rc.Flush()
			return
		}
		c.dispatch()
		if !c.write(w) {
			return
		}
		_ = rc.Flush()
		if err == io.EOF {
			return
		}
	}
}

// wireConn is one wire connection's state, reused from request to
// request: the decoded request with the arrays its lists decode into,
// the reply with the slices the registry fills, and the IDs the
// registry has accepted, interned so that a request naming a known
// stream allocates no string.
type wireConn struct {
	reg       catalog.Service
	req       wireReq
	idBuf     []catalog.ID
	settleBuf []catalog.Settlement
	resp      wireResp
	ticket    catalog.Ticket
	tickets   []catalog.Ticket
	results   []catalog.SettleResult
	ids       ndjson.Interner
	out       []byte
}

// id returns the interned ID spelled by b, or a new one.
func (c *wireConn) id(b []byte) catalog.ID { return catalog.ID(c.ids.Lookup(b)) }

// accept interns ids the registry has accepted. Only those: the table
// stays bounded by the registry's bindings whatever clients send.
func (c *wireConn) accept(ids ...catalog.ID) {
	for _, id := range ids {
		c.ids.Keep(string(id))
	}
}

// write sends c.resp as one line; false means the connection is gone
// or the reply could not be encoded.
func (c *wireConn) write(w io.Writer) bool {
	out, ok := c.resp.appendJSON(c.out[:0])
	if !ok {
		var err error
		if out, err = json.Marshal(&c.resp); err != nil {
			return false
		}
	}
	c.out = append(out, '\n')
	_, err := w.Write(c.out)
	return err == nil
}

// dispatch applies the request to the registry and sets the reply.
func (c *wireConn) dispatch() {
	req := &c.req
	c.resp = wireResp{}
	switch req.Op {
	case opAcquire:
		tk, err := c.reg.Acquire(req.ID, req.Tenant)
		if err != nil {
			c.fail(err)
			return
		}
		c.accept(req.ID)
		c.ticket = tk
		c.resp.Ticket = &c.ticket
	case opAcquireBatch:
		c.tickets = resize(c.tickets, len(req.IDs))
		if err := c.reg.AcquireBatch(req.Tenant, req.IDs, c.tickets); err != nil {
			c.fail(err)
			return
		}
		c.accept(req.IDs...)
		c.resp.Tickets = c.tickets
	case opLookup:
		local, err := c.reg.Lookup(req.ID, req.Tenant)
		if err != nil {
			c.fail(err)
			return
		}
		c.accept(req.ID)
		c.resp.Local = local
	case opRelease:
		c.resp.Refs, c.resp.Evicted = c.reg.Release(req.ID, req.Tenant, req.Held, req.Origin)
	case opSettleBatch:
		var out []catalog.SettleResult
		if req.WantResults {
			c.results = resize(c.results, len(req.Settles))
			out = c.results
		}
		if err := c.reg.SettleBatch(req.Settles, out); err != nil {
			c.fail(err)
			return
		}
		c.resp.Results = out
	case opSnapshot:
		snap := c.reg.Snapshot()
		if snap == nil {
			c.fail(fmt.Errorf("%w: snapshot after close", catalog.ErrClosed))
			return
		}
		c.resp.Snapshot = snap
	default:
		c.resp.Error = fmt.Sprintf("unknown op %q", strings.TrimSpace(req.Op))
	}
}

// fail sets an error reply.
func (c *wireConn) fail(err error) {
	c.resp.Code, c.resp.Error = encodeErr(err)
}

// resize returns s with length n, reusing its array when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
