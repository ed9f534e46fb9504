package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/catalog/remote"
	"repro/internal/chaos"
	"repro/internal/generator"
	"repro/internal/httpserve"
	"repro/internal/ndjson"
	"repro/streamclient"
)

// fleetRig is one running fleet: a catalog service process stand-in,
// N node processes, and a router in front.
type fleetRig struct {
	router    *Router
	routerURL string
	catURL    string
}

const (
	rigTenants  = 6
	rigChannels = 8
	rigGateways = 3
	rigSeed     = 71
)

func rigChannelID(s int) catalog.ID { return catalog.ID(fmt.Sprintf("ch-%03d", s)) }

// buildCluster builds one same-shaped cluster (a node, or the
// 1-process reference when svc is nil — then the catalog registry is
// in-process).
func buildCluster(t *testing.T, shards int, model catalog.CostModel, svc catalog.Service) *videodist.Cluster {
	t.Helper()
	tenants := make([]videodist.ClusterTenant, rigTenants)
	for i := range tenants {
		in, err := generator.CableTV{
			Channels: rigChannels, Gateways: rigGateways,
			Seed: rigSeed + int64(i), EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = videodist.ClusterTenant{Instance: in}
	}
	c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
		Shards: shards, BatchSize: 4,
		Catalog: &videodist.CatalogOptions{
			Streams: videodist.IdentityCatalogBindings(rigTenants, rigChannels,
				func(s int) videodist.CatalogID { return videodist.CatalogID(rigChannelID(s)) }),
			CostModel: model,
			Remote:    svc,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// buildFleetDial assembles a catalog service, N nodes, and a router.
// dial, when non-nil, replaces net.Dial on the router→node stream path
// (the chaos seam).
func buildFleetDial(t *testing.T, nodes, shards int, model catalog.CostModel, dial func(network, addr string) (net.Conn, error)) *fleetRig {
	t.Helper()
	reg, err := catalog.NewRegistry(catalog.IdentityBindings(rigTenants, rigChannels, rigChannelID), model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	catSrv := httptest.NewServer(remote.NewHandler(reg))
	t.Cleanup(catSrv.Close)

	urls := make([]string, nodes)
	for k := 0; k < nodes; k++ {
		rc, err := remote.Dial(catSrv.URL, remote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		node := buildCluster(t, shards, model, rc)
		srv := httptest.NewServer(httpserve.NewHandler(node))
		t.Cleanup(srv.Close)
		urls[k] = srv.URL
	}
	rt, err := NewRouter(Options{
		Plan:  Plan{Nodes: nodes, Shards: shards},
		Nodes: urls,
		ID:    fmt.Sprintf("test-n%d-s%d-%s", nodes, shards, model.Name()),
		Dial:  dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)
	return &fleetRig{router: rt, routerURL: rtSrv.URL, catURL: catSrv.URL}
}

// fleetSchedule derives a deterministic mixed workload: local offers
// and departs, catalog admissions and departures, user churn, and
// installing re-solves, across all tenants.
func fleetSchedule(events int, seed int64) []streamclient.Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]streamclient.Event, 0, events)
	for i := 0; i < events; i++ {
		ev := streamclient.Event{Tenant: r.Intn(rigTenants)}
		switch r.Intn(8) {
		case 0, 1:
			ev.Type, ev.Stream = "offer", r.Intn(rigChannels)
		case 2:
			ev.Type, ev.Stream = "depart", r.Intn(rigChannels)
		case 3:
			ev.Type, ev.CatalogID = "catalog-offer", string(rigChannelID(r.Intn(rigChannels)))
		case 4:
			ev.Type, ev.CatalogID = "catalog-depart", string(rigChannelID(r.Intn(rigChannels)))
		case 5:
			ev.Type, ev.User = "leave", r.Intn(rigGateways)
		case 6:
			ev.Type, ev.User = "join", r.Intn(rigGateways)
		case 7:
			ev.Type, ev.Install = "resolve", r.Intn(2) == 0
		}
		evs = append(evs, ev)
	}
	return evs
}

// driveConn pushes the schedule through one plain stream connection,
// serially (Send, Flush, Recv per event), returning the parsed results
// with seqs cleared (both sides number identically; the cleared form
// keeps the comparison about payloads).
func driveConn(t *testing.T, baseURL string, evs []streamclient.Event) []streamclient.Result {
	t.Helper()
	conn, err := streamclient.Dial(baseURL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := make([]streamclient.Result, 0, len(evs))
	for i, ev := range evs {
		if err := conn.Send(ev); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		res, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if res.Seq != i {
			t.Fatalf("recv %d: seq %d", i, res.Seq)
		}
		res.Seq = 0
		out = append(out, res)
	}
	if err := conn.CloseSend(); err != nil {
		t.Fatal(err)
	}
	return out
}

// fetchSnapshot decodes GET /v1/fleet/snapshot.
func fetchSnapshot(t *testing.T, baseURL string) *videodist.FleetSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/fleet/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var fs videodist.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	return &fs
}

// TestFleetMatchesSingleProcess pins node-count invariance, the fleet
// tier's north-star property: for a deterministic submission sequence,
// an N-node fleet (nodes owning tenant partitions, the catalog
// registry in its own process, a router in front) lands bit-identical
// per-tenant snapshots — catalog refcounts and pricing included — to
// the 1-process cluster, at every node count × shard count × cost
// model.
func TestFleetMatchesSingleProcess(t *testing.T) {
	nodeCounts := []int{1, 2, 3}
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		nodeCounts = []int{1, 3}
		shardCounts = []int{4}
	}
	models := []catalog.CostModel{catalog.Isolated{}, catalog.SharedOrigin{ReplicationFraction: 0.25}}
	evs := fleetSchedule(160, 29)
	for _, model := range models {
		for _, shards := range shardCounts {
			// One reference per (model, shards): the 1-process cluster
			// with an in-process registry, served over the same wire.
			ref := buildCluster(t, shards, model, nil)
			refSrv := httptest.NewServer(httpserve.NewHandler(ref))
			refResults := driveConn(t, refSrv.URL, evs)
			refFS := fetchSnapshot(t, refSrv.URL)
			refSrv.Close()
			if refFS.Catalog == nil {
				t.Fatal("reference snapshot has no catalog section")
			}
			for _, nodes := range nodeCounts {
				t.Run(fmt.Sprintf("%s/shards=%d/nodes=%d", model.Name(), shards, nodes), func(t *testing.T) {
					rig := buildFleetDial(t, nodes, shards, model, nil)
					got := driveConn(t, rig.routerURL, evs)
					for i := range refResults {
						if !reflect.DeepEqual(got[i], refResults[i]) {
							t.Fatalf("event %d (%+v): fleet result %+v, 1-process %+v",
								i, evs[i], got[i], refResults[i])
						}
					}
					fs := fetchSnapshot(t, rig.routerURL)
					if fs.RenderTenants() != refFS.RenderTenants() {
						t.Fatalf("per-tenant tables diverge:\n--- %d-node fleet\n%s\n--- 1-process\n%s",
							nodes, fs.RenderTenants(), refFS.RenderTenants())
					}
					if fs.Catalog == nil {
						t.Fatal("merged snapshot has no catalog section")
					}
					if fs.Catalog.Render() != refFS.Catalog.Render() {
						t.Fatalf("catalog renders diverge:\n--- %d-node fleet\n%s\n--- 1-process\n%s",
							nodes, fs.Catalog.Render(), refFS.Catalog.Render())
					}
					for _, cmp := range []struct {
						name      string
						got, want any
					}{
						{"utility", fs.Utility, refFS.Utility},
						{"offered", fs.Offered, refFS.Offered},
						{"admitted", fs.Admitted, refFS.Admitted},
						{"active", fs.ActiveStreams, refFS.ActiveStreams},
						{"pairs", fs.Pairs, refFS.Pairs},
						{"feasible", fs.AllFeasible, refFS.AllFeasible},
					} {
						if cmp.got != cmp.want {
							t.Fatalf("merged %s = %v, 1-process %v", cmp.name, cmp.got, cmp.want)
						}
					}
				})
			}
		}
	}
}

// TestRouterSessionResume drives a resumable client session through
// the router across a client-side disconnect: the second connection
// replays into dup acknowledgements below the router's watermark, and
// the per-tenant outcome matches an uninterrupted 1-process run.
func TestRouterSessionResume(t *testing.T) {
	model := catalog.Isolated{}
	evs := fleetSchedule(60, 31)

	ref := buildCluster(t, 2, model, nil)
	refSrv := httptest.NewServer(httpserve.NewHandler(ref))
	driveConn(t, refSrv.URL, evs)
	refFS := fetchSnapshot(t, refSrv.URL)
	refSrv.Close()

	rig := buildFleetDial(t, 2, 2, model, nil)
	cut := 25 // events on the first client connection
	sess, err := streamclient.NewSession(rig.routerURL, streamclient.SessionOptions{ID: "resume-client"})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs[:cut] {
		if err := sess.Send(ev); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		for {
			res, err := sess.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if res.Seq == i+1 {
				break
			}
		}
	}
	// Drop the client connection without CloseSend; the router's
	// watermark covers everything answered so far.
	_ = sess.Close()

	sess2, err := streamclient.NewSession(rig.routerURL, streamclient.SessionOptions{ID: "resume-client"})
	if err != nil {
		t.Fatal(err)
	}
	// A resumed session starts numbering at 1; pre-seed the replayed
	// prefix by resending the already-applied events — the router must
	// answer every one with a dup acknowledgement, applying nothing.
	dups := 0
	for i, ev := range evs {
		if err := sess2.Send(ev); err != nil {
			t.Fatalf("resend %d: %v", i, err)
		}
		for {
			res, err := sess2.Recv()
			if err != nil {
				t.Fatalf("re-recv %d: %v", i, err)
			}
			if res.Seq == i+1 {
				if res.Dup {
					dups++
				}
				break
			}
		}
	}
	if err := sess2.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if dups != cut {
		t.Fatalf("resumed session saw %d dup acknowledgements, want %d (exactly the replayed prefix)", dups, cut)
	}
	fs := fetchSnapshot(t, rig.routerURL)
	if fs.RenderTenants() != refFS.RenderTenants() {
		t.Fatalf("resumed fleet diverges from uninterrupted reference:\n--- fleet\n%s\n--- reference\n%s",
			fs.RenderTenants(), refFS.RenderTenants())
	}
	_ = sess2.Close()
}

// TestRouterRestartRefusesMidSessionResume pins what a replacement
// router with the same Options can resume. Its client table lives only
// in memory, so a client resuming at seq 4 after seqs 1–3 went through
// the first router is refused: trusting it would renumber its events
// upstream from 1, and the node would answer dups for events it never
// saw. A replay from seq 1 reaches the same node sessions, whose
// applied sets answer every applied event with a dup, and applies the
// rest.
func TestRouterRestartRefusesMidSessionResume(t *testing.T) {
	model := catalog.Isolated{}
	evs := fleetSchedule(6, 53)
	ref := buildCluster(t, 2, model, nil)
	refSrv := httptest.NewServer(httpserve.NewHandler(ref))
	driveConn(t, refSrv.URL, evs)
	refFS := fetchSnapshot(t, refSrv.URL)
	refSrv.Close()

	rig := buildFleetDial(t, 2, 2, model, nil)
	first, err := streamclient.NewSession(rig.routerURL, streamclient.SessionOptions{ID: "restart-client"})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs[:3] {
		if err := first.Send(ev); err != nil {
			t.Fatal(err)
		}
		if res, err := first.Recv(); err != nil || res.Seq != i+1 || res.Dup || res.Error != "" {
			t.Fatalf("first router, seq %d: %+v, %v", i+1, res, err)
		}
	}
	_ = first.Close()
	rig.router.Close() // the first router dies, and its upstream sessions with it

	rt, err := NewRouter(rig.router.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	conn, err := streamclient.DialWith(srv.URL, streamclient.DialOptions{
		Header: map[string]string{"X-Stream-Session": "restart-client"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mid := evs[3]
	mid.Seq = 4
	if err := conn.Send(mid); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseSend(); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Recv()
	if err != nil || res.Seq != -1 || res.Error != "session stream: seq 4 skips past watermark 0" {
		t.Fatalf("mid-session resume through the replacement router = %+v, %v; want the seq -1 refusal", res, err)
	}
	conn.Close()

	replay, err := streamclient.NewSession(srv.URL, streamclient.SessionOptions{ID: "restart-client"})
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	for i, ev := range evs {
		if err := replay.Send(ev); err != nil {
			t.Fatal(err)
		}
		res, err := replay.Recv()
		if wantDup := i < 3; err != nil || res.Seq != i+1 || res.Dup != wantDup || res.Error != "" {
			t.Fatalf("replay seq %d = %+v, %v; want dup %v", i+1, res, err, wantDup)
		}
	}
	if got := fetchSnapshot(t, srv.URL).RenderTenants(); got != refFS.RenderTenants() {
		t.Fatalf("replayed fleet diverges from the uninterrupted reference:\n--- fleet\n%s\n--- reference\n%s",
			got, refFS.RenderTenants())
	}
}

// TestRouterReshard reshards a 2-node fleet through the router
// mid-schedule: every node hands its tenants to new shard workers, the
// router reports the summed shard count, and the fleet keeps landing
// on the 1-process reference — results, per-tenant tables and catalog
// render alike.
func TestRouterReshard(t *testing.T) {
	evs := fleetSchedule(160, 43)
	half := len(evs) / 2
	for _, model := range []catalog.CostModel{catalog.Isolated{}, catalog.SharedOrigin{ReplicationFraction: 0.25}} {
		t.Run(model.Name(), func(t *testing.T) {
			ref := buildCluster(t, 2, model, nil)
			refSrv := httptest.NewServer(httpserve.NewHandler(ref))
			defer refSrv.Close()
			rig := buildFleetDial(t, 2, 2, model, nil)

			wantFirst := driveConn(t, refSrv.URL, evs[:half])
			gotFirst := driveConn(t, rig.routerURL, evs[:half])
			resp, err := http.Post(rig.routerURL+"/v1/admin/reshard", "application/json",
				strings.NewReader(`{"shards":3}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("router reshard: status %d: %s", resp.StatusCode, body)
			}
			var out struct {
				Shards int `json:"shards"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Shards != 6 {
				t.Fatalf("router reshard reports %d shards, want 6 (3 on each of 2 nodes)", out.Shards)
			}
			wantRest := driveConn(t, refSrv.URL, evs[half:])
			gotRest := driveConn(t, rig.routerURL, evs[half:])

			want, got := append(wantFirst, wantRest...), append(gotFirst, gotRest...)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("event %d (%+v): fleet result %+v, 1-process %+v", i, evs[i], got[i], want[i])
				}
			}
			refFS := fetchSnapshot(t, refSrv.URL)
			fs := fetchSnapshot(t, rig.routerURL)
			if fs.RenderTenants() != refFS.RenderTenants() {
				t.Fatalf("per-tenant tables diverge after reshard:\n--- fleet\n%s\n--- 1-process\n%s",
					fs.RenderTenants(), refFS.RenderTenants())
			}
			if fs.Catalog == nil || refFS.Catalog == nil || fs.Catalog.Render() != refFS.Catalog.Render() {
				t.Fatal("catalog render diverges after reshard")
			}
		})
	}
}

// TestRouterNodeFailure cuts router→node connections mid-stream with
// scripted chaos faults (ErrInjected-wrapped, injected at the router's
// upstream dial): the router's node sessions redial and replay, the
// client sees every result exactly once, no event double-applies, and
// the final state matches an unfaulted 1-process run.
func TestRouterNodeFailure(t *testing.T) {
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	evs := fleetSchedule(80, 37)

	ref := buildCluster(t, 2, model, nil)
	refSrv := httptest.NewServer(httpserve.NewHandler(ref))
	driveConn(t, refSrv.URL, evs)
	refFS := fetchSnapshot(t, refSrv.URL)
	refSrv.Close()

	// The first two router→node connections die after 10 writes each;
	// replacements are clean.
	dial := chaos.Dialer(func(i int) chaos.ConnScript {
		if i < 2 {
			return chaos.ConnScript{CutAfterWrites: 10}
		}
		return chaos.ConnScript{}
	}, nil)
	rig := buildFleetDial(t, 2, 2, model, dial)

	// A session client, so the router's upstream sessions are
	// inspectable after the drive.
	sess, err := streamclient.NewSession(rig.routerURL, streamclient.SessionOptions{ID: "chaos-client"})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if err := sess.Send(ev); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		for {
			res, err := sess.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if res.Error != "" {
				t.Fatalf("event %d: %s", i, res.Error)
			}
			if res.Seq == i+1 {
				break
			}
		}
	}
	if err := sess.CloseSend(); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()

	rig.router.mu.Lock()
	rs := rig.router.sessions["chaos-client"]
	rig.router.mu.Unlock()
	if rs == nil {
		t.Fatal("router kept no session state for the chaos client")
	}
	redials := 0
	for _, ns := range rs.nodes {
		if ns != nil {
			redials += ns.Redials()
		}
	}
	// Two scripted cuts: beyond the two first dials, every extra
	// connection is a fault-driven redial.
	if redials < 4 {
		t.Fatalf("router upstream sessions opened %d connections, want >= 4 (two scripted cuts)", redials)
	}

	fs := fetchSnapshot(t, rig.routerURL)
	if fs.RenderTenants() != refFS.RenderTenants() {
		t.Fatalf("chaos fleet diverges from unfaulted reference:\n--- fleet\n%s\n--- reference\n%s",
			fs.RenderTenants(), refFS.RenderTenants())
	}
	if fs.Catalog == nil || refFS.Catalog == nil || fs.Catalog.Render() != refFS.Catalog.Render() {
		t.Fatal("chaos fleet catalog diverges from unfaulted reference (a double-applied settlement would show here)")
	}
}

// TestPlanPartition pins the contiguous shard→node split: every shard
// has exactly one owner, ranges are contiguous, and every tenant
// routes to the node owning its pinned shard.
func TestPlanPartition(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5} {
		for _, shards := range []int{1, 2, 3, 4, 8, 9} {
			p := Plan{Nodes: nodes, Shards: shards}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			prev := 0
			counts := make([]int, nodes)
			for s := 0; s < shards; s++ {
				n := p.NodeOfShard(s)
				if n < 0 || n >= nodes {
					t.Fatalf("N=%d S=%d: shard %d → node %d out of range", nodes, shards, s, n)
				}
				if n < prev {
					t.Fatalf("N=%d S=%d: shard %d → node %d breaks contiguity (prev %d)", nodes, shards, s, n, prev)
				}
				prev = n
				counts[n]++
			}
			owned := 0
			for n, c := range counts {
				owned += c
				if shards >= nodes && c == 0 {
					t.Fatalf("N=%d S=%d: node %d owns no shards", nodes, shards, n)
				}
			}
			if owned != shards {
				t.Fatalf("N=%d S=%d: %d shards owned, want %d", nodes, shards, owned, shards)
			}
			for tn := 0; tn < 3*shards; tn++ {
				if got, want := p.NodeOfTenant(tn), p.NodeOfShard(tn%shards); got != want {
					t.Fatalf("N=%d S=%d: tenant %d → node %d, want %d", nodes, shards, tn, got, want)
				}
			}
			if p.NodeOfTenant(-1) != 0 {
				t.Fatal("negative tenant must route to node 0")
			}
		}
	}
}

// streamLines sends raw request lines over one stream connection (a
// session connection when sid is set), closes the send side, and
// returns every response line up to the end of the stream.
func streamLines(t *testing.T, baseURL, sid string, lines []string) []string {
	t.Helper()
	var opts streamclient.DialOptions
	if sid != "" {
		opts.Header = map[string]string{"X-Stream-Session": sid}
	}
	conn, err := streamclient.DialWith(baseURL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, l := range lines {
		if err := conn.SendRaw([]byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.CloseSend(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for {
		line, err := conn.RecvRaw()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(line))
	}
}

// TestRouterRefusesLikeNode sends the same request lines straight to a
// node and through a router: the router must answer line for line what
// the node answers — results up to the first line the node refuses,
// then the node's own seq -1 line, then the end of the stream — and
// must not apply anything after the refused line.
func TestRouterRefusesLikeNode(t *testing.T) {
	offer := func(s int) string { return fmt.Sprintf(`{"tenant":0,"type":"offer","stream":%d}`, s) }
	sessOffer := func(seq, s int) string {
		return fmt.Sprintf(`{"seq":%d,"tenant":0,"type":"offer","stream":%d}`, seq, s)
	}
	for _, tc := range []struct {
		name, sid string
		lines     []string
	}{
		{"unknown-type", "", []string{offer(1), `{"tenant":0,"type":"bogus"}`, offer(2), offer(3)}},
		{"missing-type", "", []string{offer(1), `{"tenant":0,"stream":2}`, offer(3)}},
		{"escaped-unknown-type", "", []string{`{"tenant":0,"type":"offer!"}`, offer(1)}},
		{"malformed", "", []string{offer(1), `{not json`, offer(2)}},
		{"float-stream", "", []string{`{"tenant":0,"type":"offer","stream":1.5}`, offer(2)}},
		{"catalog-offer-no-id", "", []string{offer(1), `{"tenant":0,"type":"catalog-offer"}`, offer(2)}},
		{"catalog-depart-no-id", "", []string{offer(1), `{"tenant":0,"type":"catalog-depart","catalog_id":""}`, offer(2)}},
		{"crlf-and-blank", "", []string{offer(1) + "\r", "\r", offer(2)}},
		{"session-gap", "bad-gap", []string{sessOffer(1, 1), sessOffer(3, 2), sessOffer(4, 3)}},
		{"session-missing-seq", "bad-noseq", []string{sessOffer(1, 1), offer(2)}},
		{"session-unknown-type", "bad-type", []string{sessOffer(1, 1), `{"seq":2,"tenant":0,"type":"bogus"}`, sessOffer(3, 2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := catalog.Isolated{}
			node := buildCluster(t, 2, model, nil)
			nodeSrv := httptest.NewServer(httpserve.NewHandler(node))
			defer nodeSrv.Close()
			want := streamLines(t, nodeSrv.URL, tc.sid, tc.lines)
			wantFS := fetchSnapshot(t, nodeSrv.URL)

			rig := buildFleetDial(t, 2, 2, model, nil)
			got := streamLines(t, rig.routerURL, tc.sid, tc.lines)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("router answered\n  %s\nnode answered\n  %s",
					strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			fs := fetchSnapshot(t, rig.routerURL)
			if fs.Offered != wantFS.Offered || fs.Admitted != wantFS.Admitted {
				t.Fatalf("router fleet offered %d admitted %d, node %d and %d",
					fs.Offered, fs.Admitted, wantFS.Offered, wantFS.Admitted)
			}
		})
	}
}

// TestRouterEndsStreamOnNodeRefusal stands a node in that refuses every
// stream with a seq -1 line: the router must relay that line as the
// node wrote it, end the client stream there, and answer the client's
// next connection through a fresh upstream session rather than replay
// the refused event under the old one.
func TestRouterEndsStreamOnNodeRefusal(t *testing.T) {
	const refusal = `{"seq":-1,"error":"session stream: seq 7 skips past watermark 0"}`
	var mu sync.Mutex
	var upstreams []string
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		upstreams = append(upstreams, r.Header.Get("X-Stream-Session"))
		mu.Unlock()
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = io.WriteString(w, refusal+"\n")
		_ = rc.Flush()
	}))
	defer node.Close()
	rt, err := NewRouter(Options{Plan: Plan{Nodes: 1, Shards: 1}, Nodes: []string{node.URL}, ID: "refusal"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtSrv := httptest.NewServer(rt.Handler())
	defer rtSrv.Close()

	lines := []string{`{"seq":1,"tenant":0,"type":"offer","stream":1}`, `{"seq":2,"tenant":0,"type":"offer","stream":2}`}
	for conn := 0; conn < 2; conn++ {
		got := streamLines(t, rtSrv.URL, "client", lines)
		if len(got) != 1 || got[0] != refusal {
			t.Fatalf("connection %d: router answered %q, want only the node's refusal", conn, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(upstreams) != 2 || upstreams[0] == upstreams[1] {
		t.Fatalf("upstream sessions %q: want one fresh session per refused connection", upstreams)
	}
}

// TestRouterStreamLineCap pins the router's line cap, the node's own: a
// valid catalog offer whose catalog_id alone is 1 MiB ends the client
// stream with a seq -1 line naming streamclient.MaxLine, after the
// relayed result of the event before it, and is never forwarded.
func TestRouterStreamLineCap(t *testing.T) {
	rig := buildFleetDial(t, 1, 1, catalog.Isolated{}, nil)
	conn, err := streamclient.Dial(rig.routerURL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The sends run beside the receives: a server that stops reading
	// may leave the client blocked mid-line.
	go func() {
		_ = conn.Send(streamclient.Event{Tenant: 0, Type: "offer", Stream: 1})
		_ = conn.Send(streamclient.Event{Tenant: 0, Type: "catalog-offer", CatalogID: strings.Repeat("x", 1<<20)})
		_ = conn.Send(streamclient.Event{Tenant: 0, Type: "offer", Stream: 2})
		_ = conn.CloseSend()
	}()
	res, err := conn.Recv()
	if err != nil || res.Seq != 0 || res.Error != "" || res.Offer == nil {
		t.Fatalf("seq 0 = %+v, %v", res, err)
	}
	res, err = conn.Recv()
	if err != nil || res.Seq != -1 || !strings.Contains(res.Error, fmt.Sprint(streamclient.MaxLine)) {
		t.Fatalf("after the oversized line: seq %d error %.200q, %v; want a seq -1 line naming the %d-byte cap",
			res.Seq, res.Error, err, streamclient.MaxLine)
	}
	if res, err := conn.Recv(); err != io.EOF {
		t.Fatalf("after the tail line: %+v, %v; want io.EOF", res, err)
	}
}

// TestRouterStreamLineCapReencoded sends a line under the cap whose
// catalog ID the router's re-encoding spells longer (encoding/json
// writes each '<' of a non-ASCII string as \u003c, six bytes for one).
// The router ends the stream with the node's cap message after the
// result before it, and never sends the line upstream: the bytes the
// router writes to the node stay far below the cap.
func TestRouterStreamLineCapReencoded(t *testing.T) {
	var upstream atomic.Int64
	dial := func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c, &upstream}, nil
	}
	rig := buildFleetDial(t, 1, 1, catalog.Isolated{}, dial)
	conn, err := streamclient.Dial(rig.routerURL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	id := "\u00e9" + strings.Repeat("<", streamclient.MaxLine-100)
	line := `{"tenant":0,"type":"catalog-offer","catalog_id":"` + id + `"}`
	if len(line) > streamclient.MaxLine {
		t.Fatalf("test line is %d bytes, over the %d-byte cap", len(line), streamclient.MaxLine)
	}
	go func() {
		_ = conn.Send(streamclient.Event{Tenant: 0, Type: "offer", Stream: 1})
		_ = conn.SendRaw([]byte(line))
		_ = conn.CloseSend()
	}()
	res, err := conn.Recv()
	if err != nil || res.Seq != 0 || res.Error != "" || res.Offer == nil {
		t.Fatalf("seq 0 = %+v, %v", res, err)
	}
	res, err = conn.Recv()
	if want := ndjson.LineTooLong(streamclient.MaxLine).Error(); err != nil || res.Seq != -1 || res.Error != want {
		t.Fatalf("after the line: seq %d error %.200q, %v; want a seq -1 line %q", res.Seq, res.Error, err, want)
	}
	if res, err := conn.Recv(); err != io.EOF {
		t.Fatalf("after the seq -1 line: %+v, %v; want io.EOF", res, err)
	}
	if n := upstream.Load(); n >= streamclient.MaxLine {
		t.Fatalf("the router wrote %d bytes to the node: it forwarded the refused line", n)
	}
}

// countingConn adds the bytes written through it to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// relayAllocBudget bounds the allocations of one event relayed through
// a router and a node: none measured, against 19 when the router
// decoded and re-encoded each result with encoding/json.
const relayAllocBudget = 2

// TestRouterRelayAllocations pins the router's per-event cost on the
// heap: one offer or depart through a loopback router and node, client
// included.
func TestRouterRelayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	rig := buildFleetDial(t, 1, 1, catalog.Isolated{}, nil)
	conn, err := streamclient.Dial(rig.routerURL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	i := 0
	event := func() {
		ev := streamclient.Event{Tenant: 0, Type: "offer", Stream: 1}
		if i%2 == 1 {
			ev.Type = "depart"
		}
		i++
		if err := conn.Send(ev); err != nil {
			t.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.RecvRaw(); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 100; j++ {
		event()
	}
	if avg := testing.AllocsPerRun(400, event); avg > relayAllocBudget {
		t.Fatalf("one relayed event allocates %.1f times, budget %d", avg, relayAllocBudget)
	}
}

// TestRouterCatalogRelayAllocations pins catalog events at plain-event
// cost through the whole fleet path: a client's catalog offers and
// departures of one ID under SharedOrigin, with a second tenant holding
// it, cross the router, a node and the wire catalog without a single
// allocation per event — the IDs are interned by the router's and the
// node's parsers and by the catalog wire, the departure's binding comes
// from the node's own table, and every list a ticket or an admission
// hands out is carved from shared arrays.
func TestRouterCatalogRelayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	rig := buildFleetDial(t, 1, 1, catalog.SharedOrigin{ReplicationFraction: 0.25}, nil)
	conn, err := streamclient.Dial(rig.routerURL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(tenant int, typ string, id catalog.ID) streamclient.Result {
		if err := conn.Send(streamclient.Event{Tenant: tenant, Type: typ, CatalogID: string(id)}); err != nil {
			t.Fatal(err)
		}
		res, err := conn.Recv()
		if err != nil || res.Error != "" || res.Catalog == nil {
			t.Fatalf("%s %s by tenant %d = %+v, %v", typ, id, tenant, res, err)
		}
		return res
	}
	// A stream both tenants admit, held by tenant 1 only.
	var id catalog.ID
	for s := 0; s < rigChannels && id == ""; s++ {
		c := rigChannelID(s)
		if !send(1, "catalog-offer", c).Catalog.Admitted {
			continue
		}
		if send(0, "catalog-offer", c).Catalog.Admitted {
			send(0, "catalog-depart", c)
			id = c
		} else {
			send(1, "catalog-depart", c)
		}
	}
	if id == "" {
		t.Fatal("no catalog stream both tenants admit")
	}
	if res := send(0, "catalog-offer", id); !res.Catalog.Admitted || len(res.Catalog.SharedWith) != 1 || res.Catalog.CostScale != 0.25 {
		t.Fatalf("shared offer = %+v", res.Catalog)
	}
	send(0, "catalog-depart", id)
	i := 0
	event := func() {
		ev := streamclient.Event{Tenant: 0, Type: "catalog-offer", CatalogID: string(id)}
		if i%2 == 1 {
			ev.Type = "catalog-depart"
		}
		i++
		if err := conn.Send(ev); err != nil {
			t.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatal(err)
		}
		line, err := conn.RecvRaw()
		if err != nil {
			t.Fatal(err)
		}
		want := `"removed":true`
		if ev.Type == "catalog-offer" {
			want = `"admitted":true,"subscribers":`
		}
		if !bytes.Contains(line, []byte(want)) {
			t.Fatalf("%s answered %s", ev.Type, line)
		}
	}
	for j := 0; j < 100; j++ {
		event()
	}
	if avg := testing.AllocsPerRun(400, event); avg != 0 {
		t.Fatalf("one relayed catalog event allocates %.2f times, want 0", avg)
	}
}

// TestRouterCatalogIsTheService pins the router's one catalog source:
// after traffic through the router, its GET /v1/catalog (proxied from
// node 0, which reads the registry through its wire client) returns
// the same bytes as the catalog service's own GET /v1/catalog.
func TestRouterCatalogIsTheService(t *testing.T) {
	rig := buildFleetDial(t, 2, 4, catalog.SharedOrigin{ReplicationFraction: 0.25}, nil)
	driveConn(t, rig.routerURL, fleetSchedule(120, 31))
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
		}
		return body
	}
	got, want := get(rig.routerURL+"/v1/catalog"), get(rig.catURL+"/v1/catalog")
	if !bytes.Equal(got, want) {
		t.Fatalf("router /v1/catalog differs from the catalog service's:\n--- router\n%s\n--- service\n%s", got, want)
	}
	if !bytes.Contains(want, []byte(`"refs"`)) {
		t.Fatalf("catalog service reports no entries after traffic: %s", want)
	}
}
