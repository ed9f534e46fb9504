package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	videodist "repro"
	"repro/internal/generator"
	"repro/streamclient"
)

// fleetConfig mirrors the mmdserve fleet shape: same-shaped CableTV
// tenants with every channel catalog-bound as "ch-NNN".
type fleetConfig struct {
	tenants, shards, channels, gateways int
	seed                                int64
	costModel                           videodist.CatalogCostModel // nil = no catalog
	walDir                              string                     // "" = no WAL
}

func defaultFleetConfig() fleetConfig {
	return fleetConfig{
		tenants: 4, shards: 2, channels: 12, gateways: 4, seed: 21,
		costModel: videodist.CatalogIsolated{},
	}
}

func buildFleet(t *testing.T, cfg fleetConfig) *videodist.Cluster {
	t.Helper()
	tenants := make([]videodist.ClusterTenant, cfg.tenants)
	for i := range tenants {
		in, err := generator.CableTV{
			Channels: cfg.channels, Gateways: cfg.gateways,
			Seed: cfg.seed + int64(i), EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = videodist.ClusterTenant{Instance: in}
	}
	opts := videodist.ClusterOptions{Shards: cfg.shards, BatchSize: 4}
	if cfg.walDir != "" {
		opts.WAL = &videodist.WALOptions{Dir: cfg.walDir}
	}
	if cfg.costModel != nil {
		opts.Catalog = &videodist.CatalogOptions{
			Streams:   videodist.IdentityCatalogBindings(cfg.tenants, cfg.channels, channelID),
			CostModel: cfg.costModel,
		}
	}
	c, err := videodist.NewCluster(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func channelID(s int) videodist.CatalogID {
	return videodist.CatalogID(fmt.Sprintf("ch-%03d", s))
}

// postEvent POSTs one event and decodes the response into out (which
// may be nil when only the status code matters).
func postEvent(t *testing.T, ts *httptest.Server, tenant int, req streamclient.Event, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/tenants/%d/events", ts.URL, tenant),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestHTTPRoundTrip is the acceptance check for the HTTP front end:
// driving the same event sequence over HTTP and in process yields the
// same typed OfferResults, and the fleet snapshot round-trips.
func TestHTTPRoundTrip(t *testing.T) {
	cfg := defaultFleetConfig()
	ref := buildFleet(t, cfg)
	c := buildFleet(t, cfg)
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	ctx := context.Background()
	for s := 0; s < cfg.channels; s++ {
		want, err := ref.OfferStream(ctx, 1, s)
		if err != nil {
			t.Fatal(err)
		}
		var got streamclient.Result
		if code := postEvent(t, ts, 1, streamclient.Event{Type: "offer", Stream: s}, &got); code != http.StatusOK {
			t.Fatalf("offer %d: status %d", s, code)
		}
		if got.Offer == nil {
			t.Fatalf("offer %d: no offer result in %+v", s, got)
		}
		if !reflect.DeepEqual(*got.Offer, want) {
			t.Fatalf("offer %d over HTTP = %+v, in-process = %+v", s, *got.Offer, want)
		}
	}

	// Churn and resolve round-trip through the same codec.
	var leave streamclient.Result
	if code := postEvent(t, ts, 1, streamclient.Event{Type: "leave", User: 0}, &leave); code != http.StatusOK {
		t.Fatalf("leave: status %d", code)
	}
	if leave.Churn == nil || !leave.Churn.Changed {
		t.Fatalf("leave = %+v", leave)
	}
	var res streamclient.Result
	if code := postEvent(t, ts, 1, streamclient.Event{Type: "resolve", Install: true}, &res); code != http.StatusOK {
		t.Fatalf("resolve: status %d", code)
	}
	if res.Resolve == nil || res.Resolve.OfflineValue <= 0 {
		t.Fatalf("resolve = %+v", res)
	}

	// Snapshot: the HTTP fleet must mirror an in-process snapshot of
	// the same sequence.
	if _, err := ref.UserLeave(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Resolve(ctx, 1, videodist.ResolveOptions{Install: true}); err != nil {
		t.Fatal(err)
	}
	wantFS, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/fleet/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var gotFS videodist.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&gotFS); err != nil {
		t.Fatal(err)
	}
	if gotFS.Utility != wantFS.Utility || gotFS.Offered != wantFS.Offered ||
		gotFS.Installs != wantFS.Installs || !gotFS.AllFeasible {
		t.Fatalf("snapshot over HTTP = %+v\nin-process = %+v", gotFS, wantFS)
	}
	if gotFS.Tenants[1].StreamsOffered != cfg.channels {
		t.Fatalf("tenant 1 offered = %d, want %d", gotFS.Tenants[1].StreamsOffered, cfg.channels)
	}
}

// TestHTTPErrorMapping pins the sentinel-to-status translation and the
// 400 paths of the codec.
func TestHTTPErrorMapping(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	var e errorResponse
	if code := postEvent(t, ts, 99, streamclient.Event{Type: "offer"}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d (%+v)", code, e)
	}
	if code := postEvent(t, ts, 0, streamclient.Event{Type: "frobnicate"}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown type: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/zero/events", "application/json",
		bytes.NewReader([]byte(`{"type":"offer"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant id: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/tenants/0/events", "application/json",
		bytes.NewReader([]byte(`{not json`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}

	// Closed cluster maps to 503.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if code := postEvent(t, ts, 0, streamclient.Event{Type: "offer"}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("closed cluster: status %d", code)
	}
}

// TestHTTPEventBodyCap pins the /events body cap: a valid offer padded
// past streamclient.MaxLine is refused with 413 and the shared error body
// instead of being buffered whole, and the server keeps serving.
func TestHTTPEventBodyCap(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	body := append([]byte(`{"type":"offer","stream":3}`), bytes.Repeat([]byte(" "), 1<<20)...)
	resp, err := http.Post(ts.URL+"/v1/tenants/0/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
		t.Fatalf("oversized body: status %d, error body %+v (decode err %v)", resp.StatusCode, e, err)
	}
	if code := postEvent(t, ts, 0, streamclient.Event{Type: "offer", Stream: 3}, nil); code != http.StatusOK {
		t.Fatalf("event after the oversized body: status %d", code)
	}
}

// TestHTTPBatchElementCap pins the :batch element cap: a batch whose
// second element carries a 1 MiB catalog_id is refused with 413 and an
// error naming streamclient.MaxLine instead of being buffered whole,
// and the server keeps serving batches.
func TestHTTPBatchElementCap(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	post := func(body string) (int, errorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/tenants/0/events:batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	big := `[{"type":"offer","stream":3},{"type":"catalog-offer","catalog_id":"` + strings.Repeat("x", 1<<20) + `"}]`
	if code, e := post(big); code != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, fmt.Sprint(streamclient.MaxLine)) {
		t.Fatalf("oversized element: status %d, error of %d bytes beginning %.120q; want 413 naming %d",
			code, len(e.Error), e.Error, streamclient.MaxLine)
	}
	if code, e := post(`[{"type":"offer","stream":3}]`); code != http.StatusOK {
		t.Fatalf("batch after the oversized one: status %d, error %q", code, e.Error)
	}
}

// batchParityEvents is the mixed single-tenant schedule shared by the
// batch and stream parity tests. Catalog events are kept out of this
// shared mix on purpose: the stream parity test replays it for every
// tenant over one pipelined connection, where cross-tenant catalog
// reference counts legitimately depend on settlement timing. The batch
// parity test appends its own single-tenant catalog section, and the
// stream test pins catalog behavior with its single-tenant tail.
func batchParityEvents(channels int) []streamclient.Event {
	var events []streamclient.Event
	for s := 0; s < channels; s++ {
		events = append(events, streamclient.Event{Type: "offer", Stream: s})
	}
	return append(events,
		streamclient.Event{Type: "depart", Stream: 2},
		streamclient.Event{Type: "leave", User: 1},
		streamclient.Event{Type: "offer", Stream: 2},
		streamclient.Event{Type: "join", User: 1},
		streamclient.Event{Type: "resolve"},
	)
}

// TestHTTPBatchParity is the batched-ingestion acceptance check: one
// POST to /v1/tenants/{id}/events:batch must yield exactly the same
// positional results and final fleet state as N single posts of the
// same events — while the whole batch crosses the shard queue as one
// message (the server-side coalescing RunWorkload enjoys).
func TestHTTPBatchParity(t *testing.T) {
	cfg := defaultFleetConfig()
	single := buildFleet(t, cfg)
	batched := buildFleet(t, cfg)
	singleTS := httptest.NewServer(NewHandler(single))
	defer singleTS.Close()
	batchTS := httptest.NewServer(NewHandler(batched))
	defer batchTS.Close()

	// The shared mix plus a single-tenant catalog section (catalog
	// events are first-class batch citizens; the schedule avoids
	// depart-then-reoffer of one CatalogID inside a single batch, whose
	// pipelined acquires price against the pre-batch sharing state and
	// can shift eviction timing relative to single posts).
	events := append(batchParityEvents(cfg.channels),
		streamclient.Event{Type: "catalog-offer", CatalogID: "ch-003"},
		streamclient.Event{Type: "catalog-offer", CatalogID: "ch-005"},
		streamclient.Event{Type: "catalog-depart", CatalogID: "ch-003"},
	)

	// Reference: N single posts.
	var want []streamclient.Result
	for _, ev := range events {
		var resp streamclient.Result
		if code := postEvent(t, singleTS, 0, ev, &resp); code != http.StatusOK {
			t.Fatalf("single %+v: status %d", ev, code)
		}
		want = append(want, resp)
	}

	// One batch post.
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(batchTS.URL+"/v1/tenants/0/events:batch", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	var got []streamclient.Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d: batch %+v vs single %+v", i, got[i], want[i])
		}
	}

	// Final state parity plus the coalescing evidence: the batch fleet
	// processed the same events in fewer, larger admission windows.
	sfs, err := single.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := batched.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sfs.RenderTenants() != bfs.RenderTenants() {
		t.Fatalf("tenant tables diverge:\n--- batch\n%s\n--- single\n%s",
			bfs.RenderTenants(), sfs.RenderTenants())
	}
	singleBatches, batchBatches := 0, 0
	for _, st := range sfs.ShardStats {
		singleBatches += st.Batches
	}
	for _, st := range bfs.ShardStats {
		batchBatches += st.Batches
	}
	if batchBatches >= singleBatches {
		t.Fatalf("batch ingestion used %d admission windows, singles used %d — no coalescing",
			batchBatches, singleBatches)
	}

	// Error paths: unknown type inside the batch, a catalog event with
	// no identity.
	for _, bad := range []string{
		`[{"type":"frobnicate"}]`,
		`[{"type":"catalog-offer"}]`,
		`{not json`,
	} {
		resp, err := http.Post(batchTS.URL+"/v1/tenants/0/events:batch", "application/json",
			bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad batch %q: status %d", bad, resp.StatusCode)
		}
	}
}

// TestHTTPReshard drives a live shard-count change over the admin
// endpoint: traffic before and after the handoff, with the final state
// pinned against a fixed-layout reference fleet (the shard-count
// invariance the cluster differential tests guarantee, observed
// through the wire).
func TestHTTPReshard(t *testing.T) {
	cfg := defaultFleetConfig()
	ref := buildFleet(t, cfg)
	cfg.walDir = t.TempDir()
	c := buildFleet(t, cfg)
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()
	refTS := httptest.NewServer(NewHandler(ref))
	defer refTS.Close()

	drive := func(phase int) {
		for tn := 0; tn < cfg.tenants; tn++ {
			for s := 0; s < cfg.channels/2; s++ {
				ev := streamclient.Event{Type: "offer", Stream: (phase*cfg.channels/2 + s) % cfg.channels}
				if s%3 == 2 {
					ev = streamclient.Event{Type: "catalog-offer", CatalogID: string(channelID(s))}
				}
				for _, srv := range []*httptest.Server{ts, refTS} {
					if code := postEvent(t, srv, tn, ev, nil); code != http.StatusOK {
						t.Fatalf("phase %d tenant %d %+v: status %d", phase, tn, ev, code)
					}
				}
			}
		}
	}
	reshard := func(body string) (int, reshardResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/admin/reshard", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out reshardResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}

	drive(0)
	if code, out := reshard(`{"shards":4}`); code != http.StatusOK || out.Shards != 4 {
		t.Fatalf("reshard to 4: status %d, %+v", code, out)
	}
	drive(1)
	// Clamped: more shards than tenants runs one worker per tenant.
	if code, out := reshard(`{"shards":64}`); code != http.StatusOK || out.Shards != cfg.tenants {
		t.Fatalf("reshard to 64: status %d, %+v (want clamp to %d)", code, out, cfg.tenants)
	}
	drive(2)

	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rfs, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.RenderTenants() != rfs.RenderTenants() {
		t.Fatalf("post-reshard tables diverge from fixed-layout reference:\n--- resharded\n%s\n--- reference\n%s",
			fs.RenderTenants(), rfs.RenderTenants())
	}
	if fs.Catalog == nil || rfs.Catalog == nil || fs.Catalog.Render() != rfs.Catalog.Render() {
		t.Fatal("post-reshard catalog diverges from fixed-layout reference")
	}

	// Error taxonomy: zero and malformed bodies are 400s.
	if code, _ := reshard(`{"shards":0}`); code != http.StatusBadRequest {
		t.Fatalf("reshard to 0: status %d, want 400", code)
	}
	if code, _ := reshard(`{nope`); code != http.StatusBadRequest {
		t.Fatalf("malformed reshard: status %d, want 400", code)
	}
	// A fleet without a WAL reshards too, and keeps its tables.
	resp, err := http.Post(refTS.URL+"/v1/admin/reshard", "application/json",
		strings.NewReader(`{"shards":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reshard without WAL: status %d, want 200", resp.StatusCode)
	}
	rfs, err = ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.RenderTenants() != rfs.RenderTenants() {
		t.Fatalf("reshard without WAL changed the tables:\n--- before\n%s\n--- after\n%s",
			fs.RenderTenants(), rfs.RenderTenants())
	}
}

// TestHTTPCatalog drives the catalog surface over the wire: shared
// admissions with discounts, the /v1/catalog snapshot, and the 404
// taxonomy (unknown id, catalog disabled).
func TestHTTPCatalog(t *testing.T) {
	cfg := defaultFleetConfig()
	cfg.costModel = videodist.CatalogSharedOrigin{ReplicationFraction: 0.25}
	c := buildFleet(t, cfg)
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	var first streamclient.Result
	if code := postEvent(t, ts, 0, streamclient.Event{Type: "catalog-offer", CatalogID: "ch-003"}, &first); code != http.StatusOK {
		t.Fatalf("catalog-offer: status %d", code)
	}
	if first.Catalog == nil || !first.Catalog.Admitted || first.Catalog.CostScale != 1 {
		t.Fatalf("first catalog offer = %+v", first)
	}
	var second streamclient.Result
	if code := postEvent(t, ts, 1, streamclient.Event{Type: "catalog-offer", CatalogID: "ch-003"}, &second); code != http.StatusOK {
		t.Fatalf("second catalog-offer: status %d", code)
	}
	if second.Catalog == nil || !second.Catalog.Admitted ||
		second.Catalog.CostScale != 0.25 || second.Catalog.Refs != 2 {
		t.Fatalf("second catalog offer = %+v", second.Catalog)
	}

	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog snapshot: status %d", resp.StatusCode)
	}
	var snap videodist.CatalogSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Model != "shared-origin" || snap.ActiveShared != 1 || snap.OriginSavings <= 0 {
		t.Fatalf("catalog snapshot = %+v", snap)
	}

	var dep streamclient.Result
	if code := postEvent(t, ts, 1, streamclient.Event{Type: "catalog-depart", CatalogID: "ch-003"}, &dep); code != http.StatusOK {
		t.Fatalf("catalog-depart: status %d", code)
	}
	if dep.Catalog == nil || !dep.Catalog.Removed || dep.Catalog.Refs != 1 || dep.Catalog.Evicted {
		t.Fatalf("catalog depart = %+v", dep.Catalog)
	}

	var e errorResponse
	if code := postEvent(t, ts, 0, streamclient.Event{Type: "catalog-offer", CatalogID: "nope"}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown catalog id: status %d (%+v)", code, e)
	}

	// A fleet built with the catalog off 404s the whole surface.
	off := cfg
	off.costModel = nil
	bare := buildFleet(t, off)
	bareTS := httptest.NewServer(NewHandler(bare))
	defer bareTS.Close()
	resp2, err := http.Get(bareTS.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("catalog-off snapshot: status %d", resp2.StatusCode)
	}
	if code := postEvent(t, bareTS, 0, streamclient.Event{Type: "catalog-offer", CatalogID: "ch-000"}, &e); code != http.StatusNotFound {
		t.Fatalf("catalog-off offer: status %d", code)
	}
}

// TestHTTPStreamParity is the serving API v4 acceptance check at the
// wire level: the same schedule submitted over one persistent
// /v1/stream connection, as :batch posts, and as single posts must
// yield positionally identical per-event results and byte-identical
// per-tenant tables — including catalog events, which every ingestion
// surface carries.
func TestHTTPStreamParity(t *testing.T) {
	cfg := defaultFleetConfig()
	single := buildFleet(t, cfg)
	streamed := buildFleet(t, cfg)
	batched := buildFleet(t, cfg)
	singleTS := httptest.NewServer(NewHandler(single))
	defer singleTS.Close()
	streamTS := httptest.NewServer(NewHandler(streamed))
	defer streamTS.Close()
	batchTS := httptest.NewServer(NewHandler(batched))
	defer batchTS.Close()

	// The schedule: the batch parity mix for every tenant, plus a
	// single-tenant catalog tail.
	var schedule []streamclient.Event
	for ti := 0; ti < cfg.tenants; ti++ {
		for _, ev := range batchParityEvents(cfg.channels) {
			schedule = append(schedule, streamclient.Event{
				Tenant: ti, Type: ev.Type, Stream: ev.Stream, User: ev.User, Install: ev.Install,
			})
		}
	}
	// The catalog tail stays on one tenant: all its registry
	// transitions settle through one shard worker's FIFO, so the
	// pipelined run reports exactly the reference counts the serial
	// single-post run sees. (Cross-tenant pricing under pipelining
	// legitimately depends on settlement timing — the ROADMAP's
	// concurrent-first-admission nuance — and is pinned serially by the
	// cluster-level tests instead.) The depart/offer/depart shape
	// exercises release, fresh admission, and eviction.
	catalogTail := []streamclient.Event{
		{Tenant: 0, Type: "catalog-depart", CatalogID: "ch-005"},
		{Tenant: 0, Type: "catalog-offer", CatalogID: "ch-005"},
		{Tenant: 0, Type: "catalog-depart", CatalogID: "ch-005"},
	}

	// Reference: single posts (events + catalog tail).
	var want []streamclient.Result
	for _, ev := range append(append([]streamclient.Event{}, schedule...), catalogTail...) {
		req := streamclient.Event{Type: ev.Type, Stream: ev.Stream, User: ev.User,
			Install: ev.Install, CatalogID: ev.CatalogID}
		var resp streamclient.Result
		if code := postEvent(t, singleTS, ev.Tenant, req, &resp); code != http.StatusOK {
			t.Fatalf("single %+v: status %d", ev, code)
		}
		want = append(want, resp)
	}

	// Streamed: everything through one pipelined connection.
	conn, err := streamclient.Dial(streamTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	all := append(append([]streamclient.Event{}, schedule...), catalogTail...)
	sendErr := make(chan error, 1)
	go func() {
		for _, ev := range all {
			if err := conn.Send(ev); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- conn.CloseSend()
	}()
	var got []streamclient.Result
	for {
		res, err := conn.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream returned %d results, want %d", len(got), len(want))
	}
	for i, res := range got {
		if res.Seq != i || res.Error != "" {
			t.Fatalf("result %d: %+v", i, res)
		}
		w := want[i]
		if res.Type != w.Type ||
			!reflect.DeepEqual(res.Offer, w.Offer) || !reflect.DeepEqual(res.Depart, w.Depart) ||
			!reflect.DeepEqual(res.Churn, w.Churn) || !reflect.DeepEqual(res.Resolve, w.Resolve) ||
			!reflect.DeepEqual(res.Catalog, w.Catalog) {
			t.Fatalf("result %d: stream %+v vs single %+v", i, res, w)
		}
	}

	// Batched: the shared schedule per tenant; the catalog tail rides
	// the batch endpoint too, one event per batch — its
	// depart/offer/depart of a single CatalogID must settle between
	// acquires to match the reference run (the pipelined-acquire
	// caveat), which one-event batches preserve.
	for ti := 0; ti < cfg.tenants; ti++ {
		var evs []streamclient.Event
		for _, ev := range schedule {
			if ev.Tenant == ti {
				evs = append(evs, streamclient.Event{Type: ev.Type, Stream: ev.Stream,
					User: ev.User, Install: ev.Install})
			}
		}
		body, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(fmt.Sprintf("%s/v1/tenants/%d/events:batch", batchTS.URL, ti),
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch tenant %d: status %d", ti, resp.StatusCode)
		}
	}
	for _, ev := range catalogTail {
		body, err := json.Marshal([]streamclient.Event{{Type: ev.Type, CatalogID: ev.CatalogID}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(fmt.Sprintf("%s/v1/tenants/%d/events:batch", batchTS.URL, ev.Tenant),
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch catalog tail %+v: status %d", ev, resp.StatusCode)
		}
	}

	sfs, err := single.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stfs, err := streamed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := batched.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stfs.Render(), sfs.Render(); got != want {
		t.Fatalf("streamed snapshot diverged from single posts:\n--- stream\n%s\n--- single\n%s", got, want)
	}
	if got, want := bfs.RenderTenants(), sfs.RenderTenants(); got != want {
		t.Fatalf("batched tenant tables diverged:\n--- batch\n%s\n--- single\n%s", got, want)
	}
}

// TestHTTPRefusalsMatchAcrossEndpoints drives the same bad event lines
// through /events, :batch and /v1/stream: every endpoint refuses every
// line with the one message the shared event check gives — 400 on the
// per-tenant endpoints, the seq -1 line ending a stream — and applies
// nothing.
func TestHTTPRefusalsMatchAcrossEndpoints(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	for _, tc := range []struct{ line, want string }{
		{`{"type":"catalog-offer"}`, `catalog-offer needs catalog_id`},
		{`{"type":"catalog-depart","catalog_id":""}`, `catalog-depart needs catalog_id`},
		{`{"type":"frobnicate","stream":1}`, `unknown event type \"frobnicate\"`},
		{`{"stream":2}`, `unknown event type \"\"`},
	} {
		if code, body := post("/v1/tenants/0/events", tc.line); code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("/events %s: %d %s, want 400 %s", tc.line, code, body, tc.want)
		}
		if code, body := post("/v1/tenants/0/events:batch", "["+tc.line+"]"); code != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf(":batch [%s]: %d %s, want 400 %s", tc.line, code, body, tc.want)
		}
		want := `{"seq":-1,"error":"` + tc.want + `"}` + "\n"
		if code, body := post("/v1/stream", tc.line+"\n"); code != http.StatusOK || body != want {
			t.Errorf("/v1/stream %s: %d %q, want %q", tc.line, code, body, want)
		}
	}
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Offered != 0 {
		t.Fatalf("refused lines applied %d offers", fs.Offered)
	}
}

// TestHTTPStreamInBandErrors pins the per-line error contract and the
// protocol-violation tail line.
func TestHTTPStreamInBandErrors(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	conn, err := streamclient.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Data-level failure: in-band, stream continues.
	if err := conn.Send(streamclient.Event{Tenant: 99, Type: "offer"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(streamclient.Event{Tenant: 0, Type: "offer", Stream: 1}); err != nil {
		t.Fatal(err)
	}
	// Protocol violation: unknown type ends the stream with a tail line.
	if err := conn.Send(streamclient.Event{Tenant: 0, Type: "frobnicate"}); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Recv()
	if err != nil || res.Seq != 0 || !strings.Contains(res.Error, "unknown tenant") {
		t.Fatalf("seq 0 = %+v, %v", res, err)
	}
	res, err = conn.Recv()
	if err != nil || res.Seq != 1 || res.Error != "" || res.Offer == nil {
		t.Fatalf("seq 1 = %+v, %v", res, err)
	}
	res, err = conn.Recv()
	if err != nil || res.Seq != -1 || !strings.Contains(res.Error, "frobnicate") {
		t.Fatalf("tail line = %+v, %v", res, err)
	}
	if _, err := conn.Recv(); err != io.EOF {
		t.Fatalf("after tail line: %v, want io.EOF", err)
	}
}

// TestHTTPStreamLineCap pins the stream's line cap: a valid catalog
// offer whose catalog_id alone is 1 MiB ends the stream with a seq -1
// line naming streamclient.MaxLine, after the result of the event
// before it, instead of being buffered whole and answered in-band.
func TestHTTPStreamLineCap(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()
	conn, err := streamclient.Dial(ts.URL)
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

// TestHTTPStreamDisconnect is the wire half of the disconnect contract:
// a client that vanishes mid-stream (socket closed with results unread)
// must leave the fleet consistent — every event the server read settles
// on its shard worker, catalog references track carriage exactly, and a
// full by-ID drain ends at zero refs. Run under -race in CI.
func TestHTTPStreamDisconnect(t *testing.T) {
	cfg := defaultFleetConfig()
	cfg.costModel = videodist.CatalogSharedOrigin{ReplicationFraction: 0.25}
	c := buildFleet(t, cfg)
	ts := httptest.NewServer(NewHandler(c))
	defer ts.Close()

	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := streamclient.Dial(u.Host)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline catalog offers for every tenant and channel, read just a
	// couple of results, then slam the connection shut.
	sent := 0
	for ti := 0; ti < cfg.tenants; ti++ {
		for s := 0; s < cfg.channels; s++ {
			if err := conn.Send(streamclient.Event{
				Tenant: ti, Type: "catalog-offer", CatalogID: string(channelID(s)),
			}); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := conn.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// The handler notices the dead client asynchronously; wait until the
	// fleet quiesces (no new offers landing across a poll interval) at
	// refs == carriage, then drain.
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	lastOffered := -1
	for {
		fs, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		refs, carried := 0, 0
		for _, e := range fs.Catalog.Entries {
			refs += e.Refs
		}
		for _, tsn := range fs.Tenants {
			carried += tsn.ActiveStreams
		}
		if fs.Offered == lastOffered && refs == carried && refs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never quiesced: %d refs, %d carried, %d offered", refs, carried, fs.Offered)
		}
		lastOffered = fs.Offered
		time.Sleep(25 * time.Millisecond)
	}
	for ti := 0; ti < cfg.tenants; ti++ {
		for s := 0; s < cfg.channels; s++ {
			if _, err := c.DepartCatalogStream(ctx, ti, channelID(s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	final, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range final.Catalog.Entries {
		if e.Refs != 0 {
			t.Fatalf("%s: %d refs leaked after disconnect + drain", e.ID, e.Refs)
		}
	}
}

// TestHTTPStreamKeepAlive posts sequential streams over one keep-alive
// connection: every stream must answer one result line per event. Once
// a stream's body hits EOF, net/http reads the connection in the
// background; a handler that then sets a past read deadline fails that
// read, which cancels the connection's context, and every later stream
// on the connection comes back 200 with an empty body.
func TestHTTPStreamKeepAlive(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	ts := httptest.NewUnstartedServer(NewHandler(c))
	var conns atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	const streams = 40
	body := `{"tenant":0,"type":"offer","stream":1}` + "\n" +
		`{"tenant":1,"type":"depart","stream":1}` + "\n"
	for i := 0; i < streams; i++ {
		resp, err := client.Post(ts.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("stream %d: read: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d", i, resp.StatusCode)
		}
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		if len(out) == 0 || len(lines) != 2 {
			t.Fatalf("stream %d: %d result bytes %q, want one line per event", i, len(out), out)
		}
		for k, line := range lines {
			var res streamclient.Result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("stream %d line %d: %v", i, k, err)
			}
			if res.Seq != k || res.Error != "" {
				t.Fatalf("stream %d line %d: %+v", i, k, res)
			}
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d streams took %d connections, want one kept alive", streams, n)
	}
}

// burstWriter records a /v1/stream handler's response writes. Its
// first write blocks until release is closed, so the results that
// settle meanwhile leave the writer as one burst.
type burstWriter struct {
	header  http.Header
	release chan struct{}
	first   sync.Once
	writes  []int
	body    bytes.Buffer
}

func (w *burstWriter) Header() http.Header { return w.header }
func (w *burstWriter) WriteHeader(int)     {}
func (w *burstWriter) Flush()              {}

func (w *burstWriter) Write(p []byte) (int, error) {
	w.first.Do(func() { <-w.release })
	w.writes = append(w.writes, len(p))
	return w.body.Write(p)
}

// TestHTTPStreamWriteBounded drives a burst of well over streamWriteMax
// bytes of results through the /v1/stream writer: no single write may
// exceed streamWriteMax plus one result line, and every line must
// arrive complete and in order.
func TestHTTPStreamWriteBounded(t *testing.T) {
	c := buildFleet(t, defaultFleetConfig())
	const events = 6000
	var body bytes.Buffer
	for i := 0; i < events; i++ {
		line, err := json.Marshal(streamclient.Event{Tenant: 0, Type: "offer", Stream: 1})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(append(line, '\n'))
	}
	w := &burstWriter{header: make(http.Header), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		NewHandler(c).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/stream", &body))
	}()
	// Every event has applied, so every result is ready, once the
	// barrier snapshot counts them all.
	deadline := time.Now().Add(10 * time.Second)
	for {
		fs, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if fs.Offered == events {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d offers applied", fs.Offered, events)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(w.release)
	<-served

	lines := strings.Split(strings.TrimSuffix(w.body.String(), "\n"), "\n")
	if len(lines) != events || w.body.Len() < 4*streamWriteMax {
		t.Fatalf("%d lines, %d bytes; want %d lines and a burst well over %d bytes",
			len(lines), w.body.Len(), events, streamWriteMax)
	}
	longest := 0
	for i, line := range lines {
		var res streamclient.Result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Seq != i || res.Offer == nil {
			t.Fatalf("line %d = %q (%v), want the result of seq %d", i, line, err, i)
		}
		longest = max(longest, len(line)+1)
	}
	for i, n := range w.writes {
		if n > streamWriteMax+longest {
			t.Fatalf("write %d of %d carries %d bytes, over %d plus one %d-byte line",
				i, len(w.writes), n, streamWriteMax, longest)
		}
	}
}
