// Package remote lifts the catalog registry's call surface onto the
// serving API v4 NDJSON wire (serving API v7): a Client implements
// catalog.Service against a registry owned by another process, and
// NewHandler serves a registry to such clients.
//
// The lift is a transport change, not a protocol change. In-process,
// every registry call is one self-contained operation under the
// registry's lock; here each call travels as one JSON line per request
// over a persistent chunked connection (the transport streamclient
// speaks), answered by one JSON line per reply, in request order. A
// node keeps one connection; its shard workers' settlement batches
// serialize through it in submission order, so the worker-FIFO
// settlement contract survives the wire unchanged, and the registry's
// lock serializes across nodes exactly as it serializes across shards
// in-process.
//
// Errors cross the wire as a sentinel code plus the original message;
// the client rebuilds an error chain that errors.Is-matches the
// catalog package's sentinels, so the cluster's wrapCatalogErr — and
// every caller matching catalog.ErrUnknownID / ErrNotBound /
// ErrClosed — behaves identically against a remote registry.
//
// The wire carries only what a node sends, the calls of
// catalog.Service: six ops, acquire, acquire-batch, lookup, release,
// settle-batch and snapshot. Any other op gets an "unknown op" reply
// and the connection keeps serving. The registry's durability plane
// never crosses it: a cluster with a remote registry refuses a WAL.
package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/buf"
	"repro/internal/catalog"
	"repro/streamclient"
)

// WirePath is the catalog service's NDJSON endpoint.
const WirePath = "/v1/catalog/wire"

// wireReq is one registry request line (client → service). Op selects
// the operation; exactly the fields that operation reads are set.
type wireReq struct {
	Op     string     `json:"op"`
	ID     catalog.ID `json:"id,omitempty"`
	Tenant int        `json:"tenant,omitempty"`
	// Acquire-batch payload.
	IDs []catalog.ID `json:"ids,omitempty"`
	// Release flags (held selects confirmed vs provisional; origin
	// echoes Ticket.OriginPayer).
	Held   bool `json:"held,omitempty"`
	Origin bool `json:"origin,omitempty"`
	// Settle-batch payload; WantResults asks for per-op outcomes.
	Settles     []catalog.Settlement `json:"settles,omitempty"`
	WantResults bool                 `json:"want_results,omitempty"`
}

// wireResp is one registry reply line (service → client). Exactly the
// field matching the request's op is set; Error/Code report a failure.
type wireResp struct {
	Ticket   *catalog.Ticket        `json:"ticket,omitempty"`
	Tickets  []catalog.Ticket       `json:"tickets,omitempty"`
	Local    int                    `json:"local,omitempty"`
	Refs     int                    `json:"refs,omitempty"`
	Evicted  bool                   `json:"evicted,omitempty"`
	Results  []catalog.SettleResult `json:"results,omitempty"`
	Snapshot *catalog.Snapshot      `json:"snapshot,omitempty"`
	Error    string                 `json:"error,omitempty"`
	Code     string                 `json:"code,omitempty"`
}

// Sentinel codes carried on the wire, mapped back to the catalog
// package's error chain client-side.
const (
	codeUnknownID = "unknown-id"
	codeNotBound  = "not-bound"
	codeClosed    = "closed"
)

// encodeErr maps a registry error onto its wire code.
func encodeErr(err error) (code, msg string) {
	switch {
	case errors.Is(err, catalog.ErrUnknownID):
		code = codeUnknownID
	case errors.Is(err, catalog.ErrNotBound):
		code = codeNotBound
	case errors.Is(err, catalog.ErrClosed):
		code = codeClosed
	}
	return code, err.Error()
}

// decodeErr rebuilds the client-side error chain from a wire code.
func decodeErr(code, msg string) error {
	switch code {
	case codeUnknownID:
		return fmt.Errorf("%w: remote: %s", catalog.ErrUnknownID, msg)
	case codeNotBound:
		return fmt.Errorf("%w: remote: %s", catalog.ErrNotBound, msg)
	case codeClosed:
		return fmt.Errorf("%w: remote: %s", catalog.ErrClosed, msg)
	}
	return fmt.Errorf("catalog/remote: server error: %s", msg)
}

// Options configures a Client.
type Options struct {
	// Dial replaces net.Dial for the underlying connection (the chaos
	// seam, like streamclient.DialOptions.Dial).
	Dial func(network, addr string) (net.Conn, error)
}

// Client is a catalog.Service against a remote registry: one
// persistent NDJSON connection, one request line per registry
// operation, strictly serialized (request, then its reply). Safe for
// concurrent use; concurrent callers serialize on the connection the
// way in-process callers serialize on the registry's lock.
type Client struct {
	mu     sync.Mutex
	conn   *streamclient.Conn
	closed bool
	// Per-call scratch, reused under mu: the request encoding, and the
	// decoded reply with the arrays its ticket and lists decode into.
	buf       []byte
	resp      wireResp
	ticket    catalog.Ticket
	ticketBuf []catalog.Ticket
	resultBuf []catalog.SettleResult
	// shared carves the decoded tickets' SharedWith lists, which the
	// caller keeps.
	shared buf.Lists[int]
}

var _ catalog.Service = (*Client)(nil)

// Dial connects a Client to a catalog service at an mmdserve base URL
// (e.g. "http://127.0.0.1:9101").
func Dial(baseURL string, opts Options) (*Client, error) {
	conn, err := streamclient.DialWith(baseURL, streamclient.DialOptions{
		Dial: opts.Dial,
		Path: WirePath,
	})
	if err != nil {
		return nil, fmt.Errorf("catalog/remote: %w", err)
	}
	return &Client{conn: conn}, nil
}

// roundTrip sends one request line and decodes its reply, which stays
// valid until c.mu is released. Called with c.mu held; the reply to the
// i-th request is the i-th response line.
func (c *Client) roundTrip(req *wireReq) (*wireResp, error) {
	if c.closed {
		return nil, fmt.Errorf("%w: remote: client closed", catalog.ErrClosed)
	}
	line, ok := req.appendJSON(c.buf[:0])
	c.buf = line
	if !ok {
		return nil, fmt.Errorf("catalog/remote: encode %s: a settlement cost is NaN or infinite", req.Op)
	}
	if err := c.conn.SendRaw(line); err != nil {
		return nil, fmt.Errorf("%w: remote: %v", catalog.ErrClosed, err)
	}
	if err := c.conn.Flush(); err != nil {
		return nil, fmt.Errorf("%w: remote: %v", catalog.ErrClosed, err)
	}
	raw, err := c.conn.RecvRaw()
	if err != nil {
		return nil, fmt.Errorf("%w: remote: %v", catalog.ErrClosed, err)
	}
	if err := c.decodeResp(raw); err != nil {
		return nil, fmt.Errorf("catalog/remote: bad reply to %s: %w", req.Op, err)
	}
	if c.resp.Error != "" {
		return nil, decodeErr(c.resp.Code, c.resp.Error)
	}
	return &c.resp, nil
}

// Acquire implements catalog.Service.
func (c *Client) Acquire(id catalog.ID, tenant int) (catalog.Ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(&wireReq{Op: opAcquire, ID: id, Tenant: tenant})
	if err != nil {
		return catalog.Ticket{}, err
	}
	if resp.Ticket == nil {
		return catalog.Ticket{}, fmt.Errorf("catalog/remote: acquire reply without ticket")
	}
	return *resp.Ticket, nil
}

// AcquireBatch implements catalog.Service.
func (c *Client) AcquireBatch(tenant int, ids []catalog.ID, out []catalog.Ticket) error {
	if len(out) != len(ids) {
		return fmt.Errorf("catalog: AcquireBatch: %d ids but %d ticket slots", len(ids), len(out))
	}
	if len(ids) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(&wireReq{Op: opAcquireBatch, Tenant: tenant, IDs: ids})
	if err != nil {
		return err
	}
	if len(resp.Tickets) != len(ids) {
		return fmt.Errorf("catalog/remote: acquire-batch: %d ids but %d tickets in reply", len(ids), len(resp.Tickets))
	}
	copy(out, resp.Tickets)
	return nil
}

// Lookup implements catalog.Service.
func (c *Client) Lookup(id catalog.ID, tenant int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(&wireReq{Op: opLookup, ID: id, Tenant: tenant})
	if err != nil {
		return 0, err
	}
	return resp.Local, nil
}

// Release implements catalog.Service. Matching Registry.Release, a
// transport failure reports zero values (the settlement may or may not
// have reached the registry; recovery of a torn connection is the node
// process's lifecycle problem, not the hot path's).
func (c *Client) Release(id catalog.ID, tenant int, held, origin bool) (refs int, evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(&wireReq{Op: opRelease, ID: id, Tenant: tenant, Held: held, Origin: origin})
	if err != nil {
		return 0, false
	}
	return resp.Refs, resp.Evicted
}

// SettleBatch implements catalog.Service: the shard worker's ordered
// settlement run crosses the wire as one line and applies in one owner
// round trip, in order — worker-FIFO settlement, remote edition.
func (c *Client) SettleBatch(ops []catalog.Settlement, out []catalog.SettleResult) error {
	if out != nil && len(out) != len(ops) {
		return fmt.Errorf("catalog: SettleBatch: %d ops but %d result slots", len(ops), len(out))
	}
	if len(ops) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(&wireReq{Op: opSettleBatch, Settles: ops, WantResults: out != nil})
	if err != nil {
		return err
	}
	if out != nil {
		if len(resp.Results) != len(ops) {
			return fmt.Errorf("catalog/remote: settle-batch: %d ops but %d results in reply", len(ops), len(resp.Results))
		}
		copy(out, resp.Results)
	}
	return nil
}

// Snapshot implements catalog.Service. Nil on transport failure,
// matching the closed-registry behavior.
func (c *Client) Snapshot() *catalog.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(&wireReq{Op: opSnapshot})
	if err != nil {
		return nil
	}
	return resp.Snapshot
}

// Close implements catalog.Service: it closes this client's
// connection. The remote registry keeps serving its other nodes.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		_ = c.conn.Close()
	}
}
