package httpserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	videodist "repro"
	"repro/streamclient"
)

// canonicalBatchBody is a 16-event wire batch in the canonical shape
// every known client emits (loaddrive.Batch marshals exactly this).
const canonicalBatchBody = `[` +
	`{"type":"offer","stream":0},{"type":"offer","stream":1},` +
	`{"type":"offer","stream":2},{"type":"offer","stream":3},` +
	`{"type":"depart","stream":1},{"type":"depart","stream":2},` +
	`{"type":"leave","user":0},{"type":"join","user":0},` +
	`{"type":"leave","user":1},{"type":"join","user":1},` +
	`{"type":"resolve","install":false},{"type":"resolve","install":true},` +
	`{"type":"offer","stream":4},{"type":"offer","stream":5},` +
	`{"type":"depart","stream":4},{"type":"resolve"}` +
	`]`

// TestAppendBatchResponseMatchesStdlibDecode pins the hand-rolled batch
// response encoder: every object it emits must decode into exactly the
// streamclient.Result a stdlib marshal of the same response decodes
// into.
func TestAppendBatchResponseMatchesStdlibDecode(t *testing.T) {
	cases := []struct {
		typ string
		res videodist.EventResult
	}{
		{"offer", videodist.EventResult{Type: videodist.ClusterStreamArrival,
			Offer: videodist.OfferResult{Accepted: true, Subscribers: []int{2, 5}, Utility: 7.25}}},
		{"offer", videodist.EventResult{Type: videodist.ClusterStreamArrival}}, // rejected: nil -> null
		{"depart", videodist.EventResult{Type: videodist.ClusterStreamDeparture,
			Depart: videodist.DepartResult{Removed: true, Subscribers: []int{0}}}},
		{"leave", videodist.EventResult{Type: videodist.ClusterUserLeave,
			Churn: videodist.ChurnResult{Changed: true, Streams: []int{1, 4}}}},
		{"join", videodist.EventResult{Type: videodist.ClusterUserJoin}},
		{"resolve", videodist.EventResult{Type: videodist.ClusterResolve,
			Resolve: videodist.ResolveResult{Installed: true, OnlineValue: 1.5, OfflineValue: 2e-7}}},
		{"resolve", videodist.EventResult{Type: videodist.ClusterResolve,
			Err: errors.New(`re-solve failed: "quoted" & ünïcode`)}},
		{"catalog-offer", videodist.EventResult{Type: videodist.ClusterStreamArrival,
			CatalogID: "ch-001",
			Catalog: videodist.CatalogResult{Admitted: true, Subscribers: []int{3}, Utility: 4.5,
				Refs: 2, SharedWith: []int{1}, CostScale: 0.25, FullCost: 10, CostCharged: 2.5}}},
		{"catalog-depart", videodist.EventResult{Type: videodist.ClusterStreamDeparture,
			CatalogID: "ch-001",
			Catalog:   videodist.CatalogResult{Removed: true, Refs: 0, Evicted: true}}},
	}
	for i, tc := range cases {
		line := appendBatchResponse(nil, tc.res)
		var got streamclient.Result
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("case %d: emitted invalid JSON %q: %v", i, line, err)
		}
		// The reference: build the response as a streamclient.Result and
		// round-trip it through the stdlib.
		ref := streamclient.Result{Type: tc.typ}
		switch {
		case tc.res.CatalogID != "":
			v := tc.res.Catalog
			ref.Catalog = &v
		case tc.res.Type == videodist.ClusterStreamArrival:
			v := tc.res.Offer
			ref.Offer = &v
		case tc.res.Type == videodist.ClusterStreamDeparture:
			v := tc.res.Depart
			ref.Depart = &v
		case tc.res.Type == videodist.ClusterUserLeave, tc.res.Type == videodist.ClusterUserJoin:
			v := tc.res.Churn
			ref.Churn = &v
		case tc.res.Type == videodist.ClusterResolve:
			v := tc.res.Resolve
			ref.Resolve = &v
		}
		if tc.res.Err != nil {
			ref.Error = tc.res.Err.Error()
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var want streamclient.Result
		if err := json.Unmarshal(refJSON, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d:\nhand-rolled %s\n-> %+v\nstdlib      %s\n-> %+v",
				i, line, got, refJSON, want)
		}
	}
}

// TestBatchCodecAllocationFree pins the batch response encoder: once
// the pooled output buffer is warm, encoding a canonical 16-event
// batch's responses allocates nothing at all. This is the regression
// bar for the batch endpoint's encode side (the remaining batch16
// allocations live in the decoder and ApplyBatch's settlement
// plumbing, not the encoder).
func TestBatchCodecAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	events, err := decodeBatch(strings.NewReader(canonicalBatchBody), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := batchPool.Get().(*batchScratch)
	defer batchPool.Put(s)

	// One synthetic result per decoded event, with every slice field
	// populated so the int-slice encoder runs too.
	results := make([]videodist.EventResult, len(events))
	for i, ev := range events {
		res := videodist.EventResult{Type: ev.Type}
		switch ev.Type {
		case videodist.ClusterStreamArrival:
			res.Offer = videodist.OfferResult{Accepted: true, Subscribers: []int{1, 2}, Utility: 3.5}
		case videodist.ClusterStreamDeparture:
			res.Depart = videodist.DepartResult{Removed: true, Subscribers: []int{1}}
		case videodist.ClusterUserLeave, videodist.ClusterUserJoin:
			res.Churn = videodist.ChurnResult{Changed: true, Streams: []int{0, 4}}
		case videodist.ClusterResolve:
			res.Resolve = videodist.ResolveResult{Installed: true, OnlineValue: 1.25, OfflineValue: 0.5}
		}
		results[i] = res
	}
	encode := func() {
		out := append(s.out[:0], '[')
		for i, res := range results {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendBatchResponse(out, res)
		}
		s.out = append(out, ']', '\n')
	}
	encode() // warm the output buffer
	if avg := testing.AllocsPerRun(200, encode); avg != 0 {
		t.Fatalf("warm batch encode allocates %.2f per batch, want 0", avg)
	}
}

// TestBatchFallbackDecodeStreams pins the batch decoder's memory shape:
// decodeBatch walks the array with a json.Decoder into one reused
// decode target, so a batch never materializes as a
// []streamclient.Event. The residual cost is one string per element
// (the decoded type name — the stdlib always copies strings out of its
// buffer) plus a small constant for the decoder itself. The byte bound
// is the teeth: whole-array decoding costs ~130 B/event here (backing
// array plus growth copies) versus ~15 for the streaming walk, so
// reintroducing it blows straight past 48·n.
func TestBatchFallbackDecodeStreams(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	const n = 256
	var sb strings.Builder
	sb.WriteString("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"type":"offer","stream":` + strconv.Itoa(1234567890123456+i) + `}`)
	}
	sb.WriteString("]")
	body := []byte(sb.String())
	var rd bytes.Reader
	var events []videodist.ClusterEvent

	decode := func() {
		rd.Reset(body)
		var err error
		if events, err = decodeBatch(&rd, events[:0]); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	decode() // warm the event slice
	if len(events) != n || events[0].Type != videodist.ClusterStreamArrival {
		t.Fatalf("decoded %d events (first %+v), want %d offers", len(events), events[0], n)
	}
	if avg := testing.AllocsPerRun(100, decode); avg > n+24 {
		t.Fatalf("warm batch decode allocates %.1f per %d-event batch, want <= %d (one string per element plus decoder overhead)", avg, n, n+24)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(48*n); got > max {
		t.Fatalf("warm batch decode allocates %d bytes per %d-event batch, want <= %d (whole-array decode would materialize the batch)", got, n, max)
	}
}

// FuzzBatchBody pins decodeBatch, the one batch decoder, against a
// whole-array reference: json.Unmarshal into []streamclient.Event, then
// the shared refusal rule and mapping per element. Whenever decodeBatch
// accepts a body its events equal the reference's, and whenever it
// refuses one the reference refuses it too — except for an element
// over the stream line cap, which the reference has no cap for and
// which only a body over the cap can hold. The oversized seeds make
// minimizing a new input slow; bound it with -fuzzminimizetime, as CI
// does.
func FuzzBatchBody(f *testing.F) {
	pad := strings.Repeat(" ", streamclient.MaxLine)
	id := strings.Repeat("x", streamclient.MaxLine)
	for _, body := range []string{
		// Oversized: an element; whitespace before an element, before
		// the array and after it; and an element just under the cap.
		`[{"type":"offer","stream":3},{"type":"catalog-offer","catalog_id":"` + id + `"}]`,
		`[{"type":"offer","stream":3},` + pad + `{"type":"offer","stream":4}]`,
		pad + `[{"type":"offer","stream":3}]`,
		`[{"type":"offer","stream":3}]` + pad,
		`[{"type":"catalog-offer","catalog_id":"` + id[:streamclient.MaxLine-64] + `"}]`,
		// Malformed.
		``,
		`[`,
		`[{"type":"offer","stream":3}]]`,
		`[{"type":"offer","stream":3},{"type":`,
		`[{"type":"offer"}{"type":"offer"}]`,
		`[{"type":"offer",}]`,
		`[1,2]`,
		`["offer"]`,
		`[{"type":"offer","stream":1e400}]`,
		"[{\"type\":\"catalog-offer\",\"catalog_id\":\"\xff\"}]",
		canonicalBatchBody,
		`[]`,
		` [ ] `,
		`[{"type":"offer","stream":7}]`,
		`[{"type":"catalog-offer","catalog_id":"ch-003"},{"type":"catalog-depart","catalog_id":"ch-003"}]`,
		"[\n  {\"type\": \"offer\", \"stream\": 2},\n  {\"type\": \"leave\", \"user\": 1}\n]\n",
		`{"type":"offer"}`,
		`[{"type":"offer","stream":3}`,
		`[{"type":"offer","stream":3}] trail`,
		`[{"type":"of\u0066er","stream":3}]`,
		`[{"type":"offer","nested":{"a":1}}]`,
		`[{"type":"offer","stream":[1]}]`,
		`[{"type":"offer","stream":3},]`,
		`[{"type":"mystery"}]`,
		`[{"type":"offer","stream":123456789012345}]`,
		`[{"type":"offer"},{"type":"catalog-offer"}]`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeBatch(bytes.NewReader(body), nil)
		if errors.Is(err, errBatchElement) {
			if len(body) <= streamclient.MaxLine {
				t.Fatalf("decodeBatch refused a %d-byte body as over the %d-byte element cap: %v", len(body), streamclient.MaxLine, err)
			}
			return
		}
		var want []videodist.ClusterEvent
		var reqs []streamclient.Event
		werr := json.Unmarshal(body, &reqs)
		if werr == nil && reqs == nil {
			// Unmarshal reads null as a nil slice; a batch is an array.
			werr = errors.New("not an array")
		}
		for i := 0; werr == nil && i < len(reqs); i++ {
			if werr = streamclient.CheckEvent(reqs[i]); werr == nil {
				want = append(want, reqs[i].Routed())
			}
		}
		switch {
		case err == nil && werr != nil:
			t.Fatalf("decodeBatch accepted %q; the reference refuses it: %v", body, werr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decodeBatch read %q as\n%+v\nreference\n%+v", body, got, want)
		case err != nil && werr == nil:
			t.Fatalf("decodeBatch refused %q (%v); the reference accepts it", body, err)
		}
	})
}
