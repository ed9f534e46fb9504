package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/ndjson"
	"repro/streamclient"
)

// Options configures a Router.
type Options struct {
	// Plan maps tenants to nodes; Plan.Nodes must equal len(Nodes).
	Plan Plan
	// Nodes are the node base URLs in node-index order. Every node
	// reports the fleet's one registry, so the merged snapshot's catalog
	// section and the /v1/catalog proxy read it through them.
	Nodes []string
	// ID prefixes the router's upstream session IDs. Distinct routers
	// sharing nodes must use distinct IDs; a restarted router reusing
	// its ID takes back client sessions replayed from seq 1, but not
	// mid-session (client watermarks live in memory). Default "router".
	ID string
	// Dial replaces net.Dial for router→node stream connections (the
	// chaos seam, see internal/chaos.Dialer).
	Dial func(network, addr string) (net.Conn, error)
}

// Router fans streaming ingestion out across the fleet's nodes. It
// holds transport state only — client watermarks and upstream
// sessions — never assignment state; killing a router loses no fleet
// state (see Options.ID for what a replacement resumes).
//
// Forwarding is serial per client connection: one event in flight at a
// time, its result written back before the next line is read. That
// serialization is what pins node-count invariance — the fleet-wide
// event order equals the client submission order, so every node and
// the catalog service observe exactly the order a 1-process cluster
// would.
type Router struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*routerSession
	connSeq  atomic.Uint64

	httpc *http.Client
}

// routerSession is the router-side state of one resumable client
// session: the dedup watermark and the persistent upstream sessions.
// Entries are never evicted (mirroring the node-side session table):
// dropping one would reset the watermark and break the exactly-once
// promise to a client that resumes later.
type routerSession struct {
	connMu    sync.Mutex // serializes connections claiming this session
	watermark uint64     // highest client seq answered (guarded by connMu)
	upstream  string     // upstream session ID prefix
	nodes     []*streamclient.Session
	nodeSeq   []uint64 // last upstream seq assigned per node
	nodeGen   []int    // upstream sessions dropped per node (see drop)
}

// NewRouter builds a router over the fleet's nodes.
func NewRouter(opts Options) (*Router, error) {
	if err := opts.Plan.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Nodes) != opts.Plan.Nodes {
		return nil, fmt.Errorf("fleet: plan has %d nodes but %d node URLs given", opts.Plan.Nodes, len(opts.Nodes))
	}
	if opts.ID == "" {
		opts.ID = "router"
	}
	return &Router{
		opts:     opts,
		sessions: make(map[string]*routerSession),
		httpc:    &http.Client{Timeout: 60 * time.Second},
	}, nil
}

// Handler returns the router's HTTP surface: the v4 stream endpoint,
// the merged fleet snapshot, the catalog proxy, and the reshard
// fan-out.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/stream", rt.handleStream)
	mux.HandleFunc("GET /v1/fleet/snapshot", rt.handleSnapshot)
	mux.HandleFunc("GET /v1/catalog", rt.handleCatalog)
	mux.HandleFunc("POST /v1/admin/reshard", rt.handleReshard)
	return mux
}

// Close tears down the persistent upstream sessions. In-flight client
// connections fail over their own error paths.
func (rt *Router) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, rs := range rt.sessions {
		for _, s := range rs.nodes {
			if s != nil {
				_ = s.Close()
			}
		}
	}
	rt.sessions = make(map[string]*routerSession)
}

// session returns (creating if needed) the state of client session id.
func (rt *Router) session(id string) *routerSession {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rs, ok := rt.sessions[id]
	if !ok {
		rs = rt.newSession(rt.opts.ID + "/" + id)
		rt.sessions[id] = rs
	}
	return rs
}

// newSession builds session state with the given upstream ID prefix.
func (rt *Router) newSession(upstream string) *routerSession {
	return &routerSession{
		upstream: upstream,
		nodes:    make([]*streamclient.Session, rt.opts.Plan.Nodes),
		nodeSeq:  make([]uint64, rt.opts.Plan.Nodes),
		nodeGen:  make([]int, rt.opts.Plan.Nodes),
	}
}

// node returns (dialing lazily) the upstream session for node n.
// Called with rs.connMu held.
func (rt *Router) node(rs *routerSession, n int) (*streamclient.Session, error) {
	if rs.nodes[n] != nil {
		return rs.nodes[n], nil
	}
	id := fmt.Sprintf("%s/n%d", rs.upstream, n)
	if g := rs.nodeGen[n]; g > 0 {
		id = fmt.Sprintf("%s.%d", id, g)
	}
	s, err := streamclient.NewSession(rt.opts.Nodes[n], streamclient.SessionOptions{
		ID:   id,
		Dial: rt.opts.Dial,
	})
	if err != nil {
		return nil, err
	}
	rs.nodes[n] = s
	return s, nil
}

// drop abandons node n's upstream session after the node ended it with
// a protocol error. Its replay window holds the refused event, which
// must never be resent, and the node's applied set for its ID no
// longer matches a fresh numbering, so the next event to the node
// opens a new upstream session under a new ID.
func (rs *routerSession) drop(n int) {
	_ = rs.nodes[n].Close()
	rs.nodes[n] = nil
	rs.nodeSeq[n] = 0
	rs.nodeGen[n]++
}

// forward routes one event to its owning node and waits for its result
// line. Serial per session: the upstream session has exactly one event
// unacked, so the next result line (dup acknowledgements included —
// the exactly-once handoff when a node died after applying but before
// answering) is this event's. A seq -1 line is the node ending the
// stream on a protocol error; forward returns it with fatal set and
// drops the upstream session. The line is valid until the session's
// next receive.
func (rt *Router) forward(rs *routerSession, ev streamclient.Event) (line []byte, fatal bool, err error) {
	n := rt.opts.Plan.NodeOfTenant(ev.Tenant)
	sess, err := rt.node(rs, n)
	if err != nil {
		return nil, false, err
	}
	ev.Seq = 0 // the upstream session assigns its own seqs
	if err := sess.Send(ev); err != nil {
		return nil, false, err
	}
	rs.nodeSeq[n]++
	want := rs.nodeSeq[n]
	for {
		line, seq, _, err := sess.RecvLine()
		if err != nil {
			return nil, false, err
		}
		if seq < 0 {
			rs.drop(n)
			return line, true, nil
		}
		if uint64(seq) >= want {
			return line, false, nil
		}
		// A stale dup acknowledgement for an already-answered seq
		// (replayed window on a redial); the wanted result follows.
	}
}

// upstreamLine appends the line forward sends for ev: a re-encoding of
// the client's line (Session.Send) under the upstream session's next
// seq.
func (rt *Router) upstreamLine(b []byte, rs *routerSession, ev streamclient.Event) []byte {
	ev.Seq = rs.nodeSeq[rt.opts.Plan.NodeOfTenant(ev.Tenant)] + 1
	return ev.AppendJSON(b)
}

// handleStream proxies one client stream session: Event lines in,
// Result lines out, in submission order, each event forwarded to its
// owning node before the next is read. The client-facing protocol is
// exactly the node's own /v1/stream — plain connections get 0-based
// response seqs, X-Stream-Session connections get client-seq echoes,
// contiguity checks, dup acknowledgements below the watermark, and an
// Error-only Seq -1 line on a protocol violation. Lines are read under
// the node's own cap (streamclient.MaxLine) and checked with the node's
// own parser (a per-connection streamclient.Parser, which interns
// catalog IDs), so a line the node would refuse ends the stream here
// with the node's message, and is never forwarded. The router forwards
// a re-encoding of each line, which can be longer than the client's
// (encoding/json spells '<' in a non-ASCII catalog ID as \u003c): a
// line whose re-encoding is over the node's cap ends the stream with
// the node's cap message too, where a client talking to the node
// directly would have had its line answered in-band. Result lines are
// relayed as the node wrote them, with only the leading seq rewritten;
// a node's own seq -1 line ends the client stream too.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	sid := r.Header.Get("X-Stream-Session")
	var rs *routerSession
	var base uint64
	ephemeral := sid == ""
	if ephemeral {
		rs = rt.newSession(fmt.Sprintf("%s/conn-%d", rt.opts.ID, rt.connSeq.Add(1)))
	} else {
		rs = rt.session(sid)
		rs.connMu.Lock()
		defer rs.connMu.Unlock()
		base = rs.watermark + 1
	}
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	var protoErr error
	body := bufio.NewReaderSize(r.Body, 32<<10)
	var parser streamclient.Parser
	outSeq := 0          // plain-mode response seq
	lastSeq := uint64(0) // last client seq read (session mode)
	var scratch, out, up []byte
	for {
		line, err := ndjson.ReadLine(body, &scratch, streamclient.MaxLine)
		if errors.Is(err, ndjson.ErrLineTooLong) {
			protoErr = err
			break
		}
		if len(line) > 0 {
			ev, perr := parser.Parse(line)
			dup := false
			if perr == nil && !ephemeral {
				dup, perr = cluster.CheckSessionSeq(ev.Seq, base, lastSeq)
				lastSeq = ev.Seq
			}
			if perr == nil && !dup {
				// The node would end the upstream session on this line.
				if up = rt.upstreamLine(up[:0], rs, ev); len(up) > streamclient.MaxLine {
					perr = ndjson.LineTooLong(streamclient.MaxLine)
				}
			}
			if perr != nil {
				protoErr = perr
				break
			}
			if dup {
				out = streamclient.AppendDupAck(out[:0], ev.Seq)
			} else {
				res, fatal, ferr := rt.forward(rs, ev)
				if ferr != nil {
					protoErr = fmt.Errorf("node %d unreachable: %v", rt.opts.Plan.NodeOfTenant(ev.Tenant), ferr)
					break
				}
				if fatal {
					// The node's own seq -1 line, relayed as written.
					out = append(append(out[:0], res...), '\n')
					_, _ = w.Write(out)
					_ = rc.Flush()
					break
				}
				seq := outSeq
				if ephemeral {
					outSeq++
				} else {
					seq = int(ev.Seq)
					rs.watermark = ev.Seq
				}
				out = relayLine(out[:0], res, seq)
			}
			if _, werr := w.Write(out); werr != nil {
				break
			}
			if rc.Flush() != nil {
				break
			}
		}
		if err != nil {
			break // io.EOF is the client's CloseSend; else a dead conn
		}
	}
	if ephemeral {
		// Nothing is in flight (serial), so the upstream sessions can
		// close immediately; their node-side sessions are garbage
		// after this (the conn ID is never reused).
		for _, s := range rs.nodes {
			if s != nil {
				_ = s.Close()
			}
		}
	}
	if protoErr != nil {
		_ = json.NewEncoder(w).Encode(streamclient.Result{Seq: -1, Error: protoErr.Error()})
		_ = rc.Flush()
	}
}

// relayLine appends a node's result line to out with its leading seq
// replaced by seq (Session.RecvLine guarantees the {"seq":N head).
func relayLine(out, line []byte, seq int) []byte {
	i := len(`{"seq":`)
	for i < len(line) && (line[i] == '-' || line[i] >= '0' && line[i] <= '9') {
		i++
	}
	out = append(out, `{"seq":`...)
	out = strconv.AppendInt(out, int64(seq), 10)
	out = append(out, line[i:]...)
	return append(out, '\n')
}

// handleSnapshot merges the nodes' barrier snapshots into the fleet
// view (see MergeSnapshots), taking its catalog section from the first
// node snapshot that has one.
func (rt *Router) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snaps := make([]*cluster.FleetSnapshot, len(rt.opts.Nodes))
	var cat *catalog.Snapshot
	for n, base := range rt.opts.Nodes {
		var fs cluster.FleetSnapshot
		if err := rt.getJSON(base+"/v1/fleet/snapshot", &fs); err != nil {
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("node %d snapshot: %w", n, err))
			return
		}
		snaps[n] = &fs
		if cat == nil {
			cat = fs.Catalog
		}
	}
	merged, err := MergeSnapshots(rt.opts.Plan, snaps, cat)
	if err != nil {
		writeRouterError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

// handleCatalog proxies the registry snapshot from node 0, which
// reports the fleet's one registry.
func (rt *Router) handleCatalog(w http.ResponseWriter, r *http.Request) {
	resp, err := rt.httpc.Get(rt.opts.Nodes[0] + "/v1/catalog")
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleReshard fans the shard-count change out to every node and
// reports the summed shard count after the handoffs. The first node
// that fails ends the call with its status — the fan-out is not
// atomic, so nodes before it have already resharded and operators
// reshard one fleet configuration at a time.
func (rt *Router) handleReshard(w http.ResponseWriter, r *http.Request) {
	payload, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, err)
		return
	}
	total := 0
	for n, base := range rt.opts.Nodes {
		resp, err := rt.httpc.Post(base+"/v1/admin/reshard", "application/json", bytes.NewReader(payload))
		if err != nil {
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("node %d reshard: %w", n, err))
			return
		}
		bodyBytes, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			_, _ = w.Write(bodyBytes)
			return
		}
		var out struct {
			Shards int `json:"shards"`
		}
		if err := json.Unmarshal(bodyBytes, &out); err != nil {
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("node %d reshard reply: %w", n, err))
			return
		}
		total += out.Shards
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"shards\":%d}\n", total)
}

// getJSON fetches url and decodes its JSON body into v.
func (rt *Router) getJSON(url string, v any) error {
	resp, err := rt.httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("status %s: %s", resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// writeRouterError writes a JSON error body.
func writeRouterError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
