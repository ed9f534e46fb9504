package remote

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/catalog"
)

// wireRequests and wireReplies cover every op's request and reply
// shape, with escape-needing strings among them.
var (
	wireRequests = []wireReq{
		{Op: opAcquire, ID: "ch-001", Tenant: 3},
		{Op: opAcquire, ID: "ch-000"},
		{Op: opAcquire, ID: `we"ird\id`, Tenant: 1},
		{Op: opAcquireBatch, Tenant: 2, IDs: []catalog.ID{"ch-001", "ch-002"}},
		{Op: opLookup, ID: "ch-004", Tenant: 1},
		{Op: opRelease, ID: "ch-001", Tenant: 3, Held: true, Origin: true},
		{Op: opSettleBatch, WantResults: true, Settles: []catalog.Settlement{
			{Op: catalog.SettleCommit, ID: "ch-001", Tenant: 3, Full: 10, Charged: 2.5, Origin: true},
			{Op: catalog.SettleReleasePending, ID: "ch-002"},
			{Op: catalog.SettleAdopt, ID: "ch-003", Tenant: 1, Full: 1e-7, Charged: 1e21},
		}},
		{Op: opSettleBatch, Settles: []catalog.Settlement{{Op: catalog.SettleRelease, ID: "ch-001", Tenant: 2, Full: -0.5}}},
		{Op: opSnapshot},
	}
	wireReplies = []wireResp{
		{Ticket: &catalog.Ticket{Local: 1, Scale: 1, OriginPayer: true}},
		{Ticket: &catalog.Ticket{Local: 2, Scale: 0.25, Refs: 2, SharedWith: []int{0, 3}, Already: true}},
		{Tickets: []catalog.Ticket{{Local: 1, Scale: 1}, {Local: 5, Scale: 0.125, Refs: 1, SharedWith: []int{7}}}},
		{Local: 4},
		{},
		{Refs: 2, Evicted: true},
		{Results: []catalog.SettleResult{{Refs: 1}, {Evicted: true}}},
		{Error: `catalog: unknown stream id: "x"`, Code: codeUnknownID},
		{Error: "registry gone", Code: codeClosed},
		{Error: "catalog: SettleBatch: 2 ops but 1 result slots"},
	}
	// retiredOpLines are requests of the durability-plane ops the wire
	// no longer serves, as clients used to write them.
	retiredOpLines = []string{
		`{"op":"replay-acquire","id":"ch-001","tenant":1,"origin":true,"scale":0.25}`,
		`{"op":"replay-settle","settles":[{"Op":2,"ID":"ch-005","Tenant":4,"Full":3,"Charged":0.75,"Origin":false}]}`,
		`{"op":"dangling"}`,
	}
)

// TestWireCodecMatchesStdlib pins the append encoders byte for byte
// against encoding/json, and the scanner against encoding/json's decode
// of every line it reads.
func TestWireCodecMatchesStdlib(t *testing.T) {
	scanned := 0
	for i := range wireRequests {
		req := &wireRequests[i]
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := req.appendJSON(nil)
		if !ok || string(got) != string(want) {
			t.Errorf("request %d: appendJSON %s (ok %v), encoding/json %s", i, got, ok, want)
		}
		var ref wireReq
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		var c wireConn
		if c.scanReq(want) {
			scanned++
			if !reflect.DeepEqual(c.req, ref) {
				t.Errorf("request %d: scanned %s as %+v, encoding/json %+v", i, want, c.req, ref)
			}
		}
	}
	for i := range wireReplies {
		resp := &wireReplies[i]
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := resp.appendJSON(nil); ok && string(got) != string(want) {
			t.Errorf("reply %d: appendJSON %s, encoding/json %s", i, got, want)
		}
		var ref wireResp
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		var c Client
		if c.scanResp(want) {
			scanned++
			if !reflect.DeepEqual(c.resp, ref) {
				t.Errorf("reply %d: scanned %s as %+v, encoding/json %+v", i, want, c.resp, ref)
			}
		}
	}
	// Everything but the escaped ID and the escaped errors is canonical.
	if want := len(wireRequests) + len(wireReplies) - 2; scanned != want {
		t.Fatalf("scanner read %d lines, want %d", scanned, want)
	}
}

// TestWireRefusesNonFinite pins that a float with no JSON form fails
// the call on the client, as encoding/json always did, without putting
// an invalid line on the wire: the connection stays usable.
func TestWireRefusesNonFinite(t *testing.T) {
	wire, _, done := newPair(t, catalog.Isolated{})
	defer done()
	bad := []catalog.Settlement{{Op: catalog.SettleCommit, ID: "ch-000", Full: math.NaN()}}
	if err := wire.SettleBatch(bad, nil); err == nil {
		t.Fatal("SettleBatch with a NaN cost succeeded")
	}
	if _, err := wire.Acquire("ch-000", 0); err != nil {
		t.Fatalf("Acquire after the refused encode: %v", err)
	}
}

// FuzzCatalogWire is the differential check of the catalog wire codec.
// Read as a request and as a reply, whenever the scanner accepts a line
// — into values still holding an earlier line's decode, as on a live
// connection — the result equals encoding/json's decode into fresh
// values; and whatever encoding/json decodes, the append encoders
// write back out in a form encoding/json decodes to the same value.
func FuzzCatalogWire(f *testing.F) {
	for i := range wireRequests {
		line, _ := wireRequests[i].appendJSON(nil)
		f.Add(line)
	}
	for i := range wireReplies {
		if line, ok := wireReplies[i].appendJSON(nil); ok {
			f.Add(line)
		}
	}
	// Repeated keys: scalars and scalar lists decode last-wins both ways,
	// objects and object lists merge under encoding/json.
	for _, l := range []string{
		`{"op":"acquire","id":"ch-001","tenant":3,"tenant":4}`,
		`{"op":"acquire-batch","ids":["a","b"],"ids":["c"]}`,
		`{"op":"settle-batch","settles":[{"Op":1,"Full":2}],"settles":[{"ID":"x"}]}`,
		`{"ticket":{"Local":1,"SharedWith":[1],"SharedWith":null}}`,
		`{"ticket":{"Local":1},"ticket":{"Scale":1}}`,
		`{"results":[{"Refs":1}],"results":[{"Evicted":true}]}`,
	} {
		f.Add([]byte(l))
	}
	for _, l := range retiredOpLines {
		f.Add([]byte(l))
	}
	dirtyReq, _ := wireRequests[6].appendJSON(nil)
	dirtyResp, _ := wireReplies[2].appendJSON(nil)
	f.Fuzz(func(t *testing.T, line []byte) {
		var conn wireConn
		var wantReq wireReq
		conn.scanReq(dirtyReq)
		reqErr := json.Unmarshal(line, &wantReq)
		if conn.scanReq(line) && (reqErr != nil || !reflect.DeepEqual(conn.req, wantReq)) {
			t.Fatalf("scanned request %q as %+v; encoding/json %+v, %v", line, conn.req, wantReq, reqErr)
		}
		if reqErr == nil {
			if enc, ok := wantReq.appendJSON(nil); ok {
				var back wireReq
				if err := json.Unmarshal(enc, &back); err != nil || !reflect.DeepEqual(omitEmpty(back), omitEmpty(wantReq)) {
					t.Fatalf("request %+v encoded as %s, which decodes to %+v, %v", wantReq, enc, back, err)
				}
			}
		}

		var client Client
		var wantResp wireResp
		client.scanResp(dirtyResp)
		respErr := json.Unmarshal(line, &wantResp)
		if client.scanResp(line) && (respErr != nil || !reflect.DeepEqual(client.resp, wantResp)) {
			t.Fatalf("scanned reply %q as %+v; encoding/json %+v, %v", line, client.resp, wantResp, respErr)
		}
		if respErr == nil {
			if enc, ok := wantResp.appendJSON(nil); ok {
				var back wireResp
				if err := json.Unmarshal(enc, &back); err != nil || !reflect.DeepEqual(back, omitEmptyResp(wantResp)) {
					t.Fatalf("reply %+v encoded as %s, which decodes to %+v, %v", wantResp, enc, back, err)
				}
			}
		}
	})
}

// omitEmpty and omitEmptyResp drop what the omitempty tags drop: empty
// slices.
func omitEmpty(r wireReq) wireReq {
	if len(r.IDs) == 0 {
		r.IDs = nil
	}
	if len(r.Settles) == 0 {
		r.Settles = nil
	}
	return r
}

func omitEmptyResp(r wireResp) wireResp {
	if len(r.Tickets) == 0 {
		r.Tickets = nil
	}
	if len(r.Results) == 0 {
		r.Results = nil
	}
	return r
}

// roundTripAllocBudget bounds the allocations of one Acquire plus one
// single-op SettleBatch over a loopback wire, client and server
// together: none measured, against 45 when both ends used
// encoding/json.
const roundTripAllocBudget = 2

// TestWireRoundTripAllocations pins the per-event wire ops' heap cost.
func TestWireRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	if avg := wireRoundTripAllocs(t, 6, false); avg > roundTripAllocBudget {
		t.Fatalf("Acquire+SettleBatch allocates %.1f times, budget %d", avg, roundTripAllocBudget)
	}
}

// TestWireSharedRoundTripAllocations pins the same round trip for an
// ID another tenant holds at zero allocations: the ticket's SharedWith
// list is carved from shared arrays on both ends, not allocated per
// acquisition by the registry and again by the client's decoder.
func TestWireSharedRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	if avg := wireRoundTripAllocs(t, 6, true); avg != 0 {
		t.Fatalf("Acquire+SettleBatch of a shared ID allocates %.1f times, want 0", avg)
	}
}

// TestWireLargeCatalogRoundTripAllocations pins the round trip at zero
// allocations on a catalog of more IDs than a stream parser interns
// (ndjson's bound of 1,024): the wire server interns every ID the
// registry accepts, so the table is bounded by the bindings, and the
// last ID a warm connection has named costs no string either.
func TestWireLargeCatalogRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	if avg := wireRoundTripAllocs(t, 1100, false); avg != 0 {
		t.Fatalf("Acquire+SettleBatch of ID 1,099 of 1,100 allocates %.1f times, want 0", avg)
	}
}

// wireRoundTripAllocs measures one Acquire of the last of streams IDs
// by tenant 1 plus the single-op SettleBatch that releases it, over a
// loopback wire, once the connection has acquired and released every
// ID in order. With shared set, tenant 3 holds the ID, so every ticket
// carries a SharedWith list.
func wireRoundTripAllocs(t *testing.T, streams int, shared bool) float64 {
	t.Helper()
	ids := catalog.IdentityBindings(4, streams, func(s int) catalog.ID {
		return catalog.ID(fmt.Sprintf("ch-%03d", s))
	})
	reg, err := catalog.NewRegistry(ids, catalog.SharedOrigin{ReplicationFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	id := ids[streams-1].ID
	if shared {
		holder, err := reg.Acquire(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		reg.Commit(id, 3, 4, 4, holder.OriginPayer)
	}
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	client, err := Dial(srv.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	ops := make([]catalog.Settlement, 1)
	out := make([]catalog.SettleResult, 1)
	roundTrip := func(id catalog.ID) catalog.Ticket {
		tk, err := client.Acquire(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		ops[0] = catalog.Settlement{Op: catalog.SettleReleasePending, ID: id, Tenant: 1, Origin: tk.OriginPayer}
		if err := client.SettleBatch(ops, out); err != nil {
			t.Fatal(err)
		}
		return tk
	}
	for _, b := range ids {
		roundTrip(b.ID)
	}
	measured := func() {
		tk := roundTrip(id)
		if shared && (len(tk.SharedWith) != 1 || tk.SharedWith[0] != 3) {
			t.Fatalf("ticket = %+v, want shared with tenant 3", tk)
		}
	}
	for i := 0; i < 50; i++ {
		measured()
	}
	return testing.AllocsPerRun(200, measured)
}
