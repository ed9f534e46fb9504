package streamclient

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	videodist "repro"
)

// TestFastParseMatchesStdlib pins the hand-rolled line scanner against
// the stdlib decoder: on every line it accepts, the parsed event must
// equal json.Unmarshal's; lines it rejects must still round-trip
// through the fallback, so ParseEvent is stdlib-equivalent on all
// valid input.
func TestFastParseMatchesStdlib(t *testing.T) {
	lines := []string{
		`{"tenant":0,"type":"offer","stream":3}`,
		`{"tenant":7,"type":"depart","stream":12}`,
		`{"tenant":1,"type":"leave","user":4}`,
		`{"tenant":1,"type":"join","user":0}`,
		`{"tenant":2,"type":"resolve","install":true}`,
		`{"tenant":2,"type":"resolve","install":false}`,
		`{"tenant":0,"type":"catalog-offer","catalog_id":"ch-003"}`,
		`{"tenant":3,"type":"catalog-depart","catalog_id":"espn-hd"}`,
		` { "tenant" : 5 , "type" : "offer" , "stream" : 9 } `,
		`{"type":"offer","tenant":4,"stream":1}`, // key order free
		`{"tenant":-1,"type":"offer"}`,           // negative int
		`{"tenant":0,"type":"offer","stream":123456789}`,
		`{"type":"resolve","install":true,"install":false}`, // last duplicate wins
		"{}",
		wideLines[0],
		wideLines[1],
		`{"seq":999999999999999999,"tenant":1,"type":"offer","stream":2}`, // 18-digit seq
	}
	for _, line := range lines {
		var want Event
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("bad test line %q: %v", line, err)
		}
		if got, ok := parseCanonical([]byte(line), nil); ok && !reflect.DeepEqual(got, want) {
			t.Errorf("fast parse of %q = %+v, stdlib %+v", line, got, want)
		}
	}
	// The fast path reads every shape of canonical line, these included.
	var p Parser
	for _, l := range wideLines {
		line := []byte(l)
		if avg := testing.AllocsPerRun(100, func() { _, _ = p.Parse(line) }); avg != 0 {
			t.Errorf("Parse of %q allocates %.1f times", line, avg)
		}
	}

	// Lines the fast path must hand to the stdlib — exotic but valid
	// JSON keeps working through the fallback, invalid JSON fails there.
	fallback := []string{
		`{"tenant":0,"type":"of\u0066er","stream":3}`,          // escape in string
		`{"tenant":0,"type":"offer","stream":3,"extra":1}`,     // unknown key
		`{"tenant":0,"type":"offer","stream":3.0}`,             // float
		`{"tenant":12345678901,"type":"offer"}`,                // would overflow the fast int
		`{"tenant":0,"type":"offer","catalog_id":"żółć"}`,      // non-ASCII string
		`{"tenant":0,"type":"offer","stream":null}`,            // null value
		`{"tenant": 0, "type": "offer", "stream": 2} trail`,    // trailing garbage
		`{"tenant":0,"type":"offer","stream":007}`,             // leading zero: invalid JSON
		`{"tenant":-01,"type":"offer"}`,                        // leading zero after sign
		"{\"type\":\"catalog-offer\",\"catalog_id\":\"a\tb\"}", // raw control character: invalid JSON
	}
	for _, line := range fallback {
		if _, ok := parseCanonical([]byte(line), nil); ok {
			t.Errorf("fast path accepted non-canonical line %q", line)
		}
	}
	// And through ParseEvent the valid ones still decode.
	ev, err := ParseEvent([]byte(`{"tenant":0,"type":"of\u0066er","stream":3}`))
	if err != nil || ev.Type != "offer" || ev.Stream != 3 {
		t.Fatalf("fallback parse = %+v, %v", ev, err)
	}
	if _, err := ParseEvent([]byte(`{not json`)); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// wideLines are valid canonical lines that JSON allows but AppendJSON
// never writes: a \r between tokens, and a DEL byte (0x7f), which JSON
// strings carry unescaped, inside a catalog ID.
var wideLines = []string{
	"{\"seq\":3,\r\"tenant\":1,\"type\":\"offer\",\r\"stream\":2}",
	"{\"tenant\":0,\"type\":\"catalog-offer\",\"catalog_id\":\"ch\x7f01\"}",
}

// TestParseEventRefusals pins the messages a server ends a stream
// with: nodes and routers both take them from ParseEvent.
func TestParseEventRefusals(t *testing.T) {
	for line, want := range map[string]string{
		`{"tenant":0,"type":"bogus"}`:                          `unknown event type "bogus"`,
		`{"tenant":0}`:                                         `unknown event type ""`,
		`{"tenant":0,"type":"offer!"}`:                         `unknown event type "offer!"`,
		`{not json`:                                            `bad stream line: invalid character 'n' looking for beginning of object key string`,
		`{"tenant":0,"type":"offer","stream":1.5}`:             `bad stream line: json: cannot unmarshal number 1.5 into Go struct field Event.stream of type int`,
		`{"tenant":0,"type":"catalog-offer"}`:                  `catalog-offer needs catalog_id`,
		`{"tenant":0,"type":"catalog-depart","catalog_id":""}`: `catalog-depart needs catalog_id`,
	} {
		if _, err := ParseEvent([]byte(line)); err == nil || err.Error() != want {
			t.Errorf("ParseEvent(%s) = %v, want %q", line, err, want)
		}
	}
}

// wireEvents covers every event shape a client sends.
var wireEvents = []Event{
	{Tenant: 0, Type: "offer", Stream: 3},
	{Seq: 12, Tenant: 7, Type: "depart", Stream: 0},
	{Tenant: 1, Type: "leave", User: 4},
	{Seq: 1, Tenant: 1, Type: "join", User: 2},
	{Tenant: 2, Type: "resolve", Install: true},
	{Tenant: -3, Type: "resolve"},
	{Tenant: 3, Type: "catalog-offer", CatalogID: "espn-hd"},
	{Seq: 99, Tenant: 3, Type: "catalog-depart", CatalogID: `we"ird\id`},
	{Tenant: 4, Type: "catalog-offer", CatalogID: "żółć"},
}

// TestEventVocabulary pins the protocol's event vocabulary: each of
// the seven wire type names routes to its cluster event — the catalog
// names as arrivals and departures that keep their catalog_id, the
// others dropping it — and TypeName maps the routed type and catalog
// mark back to the same name. An unknown name routes to no type, has
// no name, and is refused.
func TestEventVocabulary(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     videodist.ClusterEventType
		catalog bool
	}{
		{"offer", videodist.ClusterStreamArrival, false},
		{"depart", videodist.ClusterStreamDeparture, false},
		{"leave", videodist.ClusterUserLeave, false},
		{"join", videodist.ClusterUserJoin, false},
		{"resolve", videodist.ClusterResolve, false},
		{"catalog-offer", videodist.ClusterStreamArrival, true},
		{"catalog-depart", videodist.ClusterStreamDeparture, true},
	} {
		ev := Event{Seq: 4, Tenant: 3, Type: tc.name, Stream: 5, User: 2, Install: true, CatalogID: "ch-007"}
		want := videodist.ClusterEvent{Tenant: 3, Type: tc.typ, Stream: 5, User: 2, Install: true}
		if tc.catalog {
			want.CatalogID = "ch-007"
		}
		if got := ev.Routed(); got != want {
			t.Errorf("%s routes to %+v, want %+v", tc.name, got, want)
		}
		if got := TypeName(tc.typ, tc.catalog); got != tc.name {
			t.Errorf("TypeName(%d, %v) = %q, want %q", tc.typ, tc.catalog, got, tc.name)
		}
		if err := CheckEvent(ev); err != nil {
			t.Errorf("CheckEvent refuses %s: %v", tc.name, err)
		}
	}
	unknown := Event{Tenant: 3, Type: "teleport", CatalogID: "ch-007"}
	if got := unknown.Routed(); got.Type != 0 || got.CatalogID != "" {
		t.Errorf("an unknown name routes to %+v", got)
	}
	if got := TypeName(0, false); got != "" {
		t.Errorf("TypeName of no type = %q", got)
	}
	if got := TypeName(videodist.ClusterUserLeave, true); got != "" {
		t.Errorf("TypeName of a catalog leave = %q; leave has no catalog name", got)
	}
	if err := CheckEvent(unknown); err == nil {
		t.Error("CheckEvent accepts an unknown name")
	}
}

// TestEventAppendJSONMatchesStdlib pins the client-side event encoder
// against the stdlib for every wire shape the client emits.
func TestEventAppendJSONMatchesStdlib(t *testing.T) {
	for i, ev := range wireEvents {
		line := ev.AppendJSON(nil)
		var got Event
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("case %d: invalid JSON %q: %v", i, line, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("case %d: %q decodes to %+v, want %+v", i, line, got, ev)
		}
	}
}

// TestParseEventRoundTrip requires ParseEvent to invert AppendJSON, and
// the fast path to take every line whose strings need no escaping.
func TestParseEventRoundTrip(t *testing.T) {
	for i, ev := range wireEvents {
		line := ev.AppendJSON(nil)
		got, err := ParseEvent(line)
		if err != nil || !reflect.DeepEqual(got, ev) {
			t.Errorf("case %d: ParseEvent(%s) = %+v, %v; want %+v", i, line, got, err, ev)
		}
		plain := true
		for _, c := range []byte(ev.CatalogID) {
			plain = plain && c != '"' && c != '\\' && c < 0x80
		}
		if _, ok := parseCanonical(line, nil); ok != plain {
			t.Errorf("case %d: fast path took %s: %v, want %v", i, line, ok, plain)
		}
	}
	line := []byte(`{"seq":4,"tenant":1,"type":"offer","stream":3}`)
	if avg := testing.AllocsPerRun(100, func() { _, _ = ParseEvent(line) }); avg != 0 {
		t.Fatalf("ParseEvent of a canonical line allocates %.1f times", avg)
	}
}

// TestParserInternsCatalogIDs requires a Parser to decode every line
// exactly as ParseEvent does, and a catalog line naming an ID it has
// met before to cost no allocation.
func TestParserInternsCatalogIDs(t *testing.T) {
	var p Parser
	for i, ev := range wireEvents {
		line := ev.AppendJSON(nil)
		want, werr := ParseEvent(line)
		got, err := p.Parse(line)
		if !reflect.DeepEqual(got, want) || (err == nil) != (werr == nil) {
			t.Errorf("case %d: Parse(%s) = %+v, %v; ParseEvent %+v, %v", i, line, got, err, want, werr)
		}
	}
	line := []byte(`{"tenant":1,"type":"catalog-offer","catalog_id":"ch-007"}`)
	if ev, err := p.Parse(line); err != nil || ev.CatalogID != "ch-007" {
		t.Fatalf("Parse = %+v, %v", ev, err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = p.Parse(line) }); avg != 0 {
		t.Fatalf("Parse of a catalog line with a known ID allocates %.1f times", avg)
	}
}

// headLines are result lines as servers write them on the hot path;
// decodeLines are valid lines only a decode reads (escapes may spell a
// key, keys in other letter cases, whitespace, keys out of order).
var (
	headLines = []string{
		`{"seq":0,"type":"offer","offer":{"Accepted":true,"Subscribers":[2,5],"Utility":7.25}}`,
		`{"seq":1,"type":"depart","depart":{"Removed":false,"Subscribers":null}}`,
		`{"seq":2,"type":"catalog-offer","catalog":{"refs":2,"admitted":true,"shared_with":[1],"cost_scale":0.25}}`,
		`{"seq":3,"dup":true}`,
		`{"seq":5}`,
		`{"seq":-1,"error":"session stream: line missing seq"}`,
	}
	decodeLines = []string{
		`{"seq":4,"type":"offer","error":"cluster: \"quoted\" failure"}`,
		`{"seq":-1,"error":"unknown event type \"bogus\""}`,
		`{ "seq": 6, "type": "join", "churn": {"Changed": true, "Streams": [1]} }`,
		`{"seq":7,"type":"offer","Dup":true}`,
		`{"seq":8,"type":"offer","SEQ":9}`,
		`{"seq":10,"dup":false}`,
		`{"type":"leave","seq":11}`,
	}
)

// TestResultHeadMatchesStdlib pins the head reader: it reads every
// hot-path line, and whenever it reads a line its seq and dup mark are
// encoding/json's.
func TestResultHeadMatchesStdlib(t *testing.T) {
	for i, line := range append(headLines, decodeLines...) {
		var want Result
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("bad test line %s: %v", line, err)
		}
		seq, dup, ok := resultHead([]byte(line))
		if !ok {
			if i < len(headLines) {
				t.Errorf("head reader refused server line %s", line)
			}
			continue
		}
		if seq != want.Seq || dup != want.Dup {
			t.Errorf("head of %s = (%d, %v), stdlib (%d, %v)", line, seq, dup, want.Seq, want.Dup)
		}
	}
}

// scriptedStream serves lines as the response to every stream request
// once the request body is closed.
func scriptedStream(lines []string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		bw := bufio.NewWriter(w)
		for _, l := range lines {
			bw.WriteString(l + "\n")
		}
		_ = bw.Flush()
	}))
}

// TestRecvLineMatchesRecv drives two sessions through the same scripted
// response, one reading with Recv and one with RecvLine: every line
// must carry Recv's seq and dup mark and decode to Recv's result, and
// both sessions must ack and count dups alike.
func TestRecvLineMatchesRecv(t *testing.T) {
	srv := scriptedStream([]string{
		`{"seq":1,"type":"offer","offer":{"Accepted":true,"Subscribers":[2,5],"Utility":7.25}}`,
		`{"seq":2,"dup":true}`,
		`{ "seq": 3, "type": "join", "churn": {"Changed": true, "Streams": [1]} }`,
		`{"seq":4,"type":"offer","Dup":true}`,
		`{"seq":5,"type":"offer","error":"cluster: \"quoted\" failure"}`,
	})
	defer srv.Close()
	open := func(id string) *Session {
		s, err := NewSession(srv.URL, SessionOptions{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := s.Send(Event{Tenant: i, Type: "offer"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CloseSend(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	dec, raw := open("recv"), open("recvline")
	defer dec.Close()
	defer raw.Close()
	for i := 0; ; i++ {
		want, werr := dec.Recv()
		line, seq, dup, gerr := raw.RecvLine()
		if werr != nil || gerr != nil {
			if werr != io.EOF || gerr != io.EOF {
				t.Fatalf("line %d: Recv err %v, RecvLine err %v", i, werr, gerr)
			}
			break
		}
		if seq != want.Seq || dup != want.Dup {
			t.Errorf("line %d: RecvLine (%d, %v), Recv (%d, %v)", i, seq, dup, want.Seq, want.Dup)
		}
		if !strings.HasPrefix(string(line), fmt.Sprintf(`{"seq":%d`, seq)) {
			t.Errorf("line %d: %s does not open with its seq", i, line)
		}
		var got Result
		if err := json.Unmarshal(line, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("line %d: %s decodes to %+v (%v), Recv %+v", i, line, got, err, want)
		}
	}
	if dec.Dups() != raw.Dups() || raw.Dups() != 2 {
		t.Fatalf("dups: Recv session %d, RecvLine session %d, want 2", dec.Dups(), raw.Dups())
	}
}

// FuzzEventLine is the differential check of the stream protocol's
// hand-rolled readers: whenever parseCanonical or ParseEvent
// accepts a line, the event equals encoding/json's, and whenever the
// result head reader reads a line the stdlib also decodes, seq and dup
// mark agree. The parsers know no line cap (a server's line reader
// enforces MaxLine), so lines around the cap must parse as the stdlib
// parses them. The oversized seeds make minimizing a new input slow;
// bound it with -fuzzminimizetime, as CI does.
func FuzzEventLine(f *testing.F) {
	for _, ev := range wireEvents {
		f.Add(ev.AppendJSON(nil))
	}
	for _, l := range append(headLines, decodeLines...) {
		f.Add([]byte(l))
	}
	// catalogLine is a canonical catalog offer exactly n bytes long.
	catalogLine := func(n int) string {
		head := `{"tenant":0,"type":"catalog-offer","catalog_id":"`
		return head + strings.Repeat("x", n-len(head)-2) + `"}`
	}
	pad := strings.Repeat(" ", MaxLine)
	for _, l := range []string{
		// Oversized: just under, at and just over the cap, as one long
		// ID and as whitespace around a short event.
		catalogLine(MaxLine - 1),
		catalogLine(MaxLine),
		catalogLine(MaxLine + 1),
		`{"tenant":0,"type":"offer","stream":3}` + pad,
		pad[:MaxLine-40] + `{"tenant":0,"type":"offer","stream":3}`,
		// Malformed.
		`{"tenant":0,"type":"offer","stream":3,"extra":1}`,
		`{"tenant":0,"type":"offer","stream":`,
		`{"tenant":0,"type":"offer"`,
		`{"tenant":0,"type":"offer","stream":3} trail`,
		`{"tenant":0,"type":"offer","stream":3}{}`,
		`{"tenant":0,"tenant":1,"type":"offer","stream":3}`,
		`{"tenant":0,"type":"offer","stream":03}`,
		`{"tenant":0,"type":"offer","stream":3.}`,
		`{"tenant":-0,"type":"offer","stream":1e400}`,
		"{\"tenant\":0,\"type\":\"catalog-offer\",\"catalog_id\":\"a\tb\"}",
		`[{"tenant":0,"type":"offer","stream":3}]`,
		`"offer"`,
		`null`,
		``,
		wideLines[0],
		wideLines[1],
		`{"seq":999999999999999999,"tenant":1,"type":"offer","stream":2}`,
	} {
		f.Add([]byte(l))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Event
		werr := json.Unmarshal(line, &want)
		if got, ok := parseCanonical(line, nil); ok && (werr != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("fast path read %q as %+v; stdlib %+v, %v", line, got, want, werr)
		}
		if got, err := ParseEvent(line); err == nil && (werr != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("ParseEvent read %q as %+v; stdlib %+v, %v", line, got, want, werr)
		}
		var res Result
		if seq, dup, ok := resultHead(line); ok && json.Unmarshal(line, &res) == nil && (seq != res.Seq || dup != res.Dup) {
			t.Fatalf("head of %q = (%d, %v); stdlib (%d, %v)", line, seq, dup, res.Seq, res.Dup)
		}
	})
}

// TestSendChunkFraming pins the request body's hand-framed chunks: a
// server's chunked reader reads back exactly the lines sent, across
// flushes and the closing chunk, and a warm Send-and-Flush of a chunk
// longer than 255 bytes allocates nothing (net/http's chunked writer
// allocated once per such chunk, formatting its size).
func TestSendChunkFraming(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	body := make(chan []byte, 1)
	go func() {
		defer close(body)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		req, err := http.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			t.Error(err)
			return
		}
		b, err := io.ReadAll(req.Body)
		if err != nil {
			t.Error(err)
		}
		body <- b
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var lines []byte
	events := make([]Event, 20)
	for i := range events {
		events[i] = Event{Tenant: i, Type: "offer", Stream: 7}
		lines = append(append(lines, events[i].AppendJSON(nil)...), '\n')
	}
	if len(lines) <= 255 {
		t.Fatalf("a burst is %d bytes; want a chunk size fmt would allocate for", len(lines))
	}
	bursts := 0
	burst := func() {
		for _, ev := range events {
			if err := c.Send(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		bursts++
	}
	burst()
	if avg := testing.AllocsPerRun(50, burst); avg != 0 {
		t.Fatalf("a warm Send burst and Flush allocate %.2f times, want 0", avg)
	}
	if err := c.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if got, want := <-body, bytes.Repeat(lines, bursts); !bytes.Equal(got, want) {
		t.Fatalf("the server read %d bytes, want %d bursts of %d bytes", len(got), bursts, len(lines))
	}
}
