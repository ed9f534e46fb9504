package streamclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	videodist "repro"
	"repro/internal/ndjson"
)

// MaxLine caps one request line of the stream protocol, in bytes. A
// server refuses a longer line: a stream ends with a seq -1 line, and
// the single-event endpoint, whose body is one line, answers 413. An
// event line is under 200 bytes, so the cap only stops a client from
// making a server buffer without bound.
const MaxLine = 64 << 10

// ParseEvent decodes one request line of the stream protocol. It is
// the parser every server of the protocol shares — nodes and the fleet
// router alike, and a node's single-event endpoint, whose body is one
// such line — so all of them refuse the same lines with the same
// message. Canonical lines (the shape AppendJSON writes) decode
// without allocating when a Parser reads them; anything else goes through
// encoding/json, so exotic but valid JSON still works and invalid JSON
// fails with the stdlib's message. A decoded event CheckEvent refuses
// is refused too.
func ParseEvent(line []byte) (Event, error) { return parseEvent(line, nil) }

// Parser is ParseEvent with a memory: it interns the catalog IDs it
// decodes (up to a bound, see ndjson.Interner), so a canonical line
// naming an ID the parser has met before allocates nothing. A server
// keeps one per connection. The zero value is ready; a Parser is not
// safe for concurrent use.
type Parser struct{ ids ndjson.Interner }

// Parse is ParseEvent through the parser's interning table.
func (p *Parser) Parse(line []byte) (Event, error) { return parseEvent(line, &p.ids) }

// parseEvent is ParseEvent, with catalog IDs interned by ids (nil
// interns nothing).
func parseEvent(line []byte, ids *ndjson.Interner) (Event, error) {
	ev, ok := parseCanonical(line, ids)
	if !ok {
		var err error
		if ev, err = decodeEvent(line); err != nil {
			return Event{}, err
		}
	}
	if err := CheckEvent(ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// CheckEvent is the protocol's one refusal rule for a decoded event,
// shared by ParseEvent and a server's batch decoder: the type must be
// a known event type, and a catalog event must name its catalog_id (a
// catalog event without one would otherwise apply as a plain event of
// local stream 0).
func CheckEvent(ev Event) error {
	k, ok := kindOf(ev.Type)
	switch {
	case !ok:
		return fmt.Errorf("unknown event type %q", ev.Type)
	case k.catalog && ev.CatalogID == "":
		return fmt.Errorf("%s needs catalog_id", ev.Type)
	}
	return nil
}

// eventKind is one entry of the protocol's event vocabulary: a wire
// type name and the routed event it applies as.
type eventKind struct {
	name string
	typ  videodist.ClusterEventType
	// catalog marks a name whose routed event carries its catalog_id.
	catalog bool
}

// eventKinds is the event vocabulary, the one place the wire type names
// are spelled: the parser interns them, CheckEvent refuses what is not
// here, Event.Routed maps a name to its routed event and TypeName maps
// a routed event back. The catalog names route as arrivals and
// departures that carry their catalog_id.
var eventKinds = [...]eventKind{
	{"offer", videodist.ClusterStreamArrival, false},
	{"depart", videodist.ClusterStreamDeparture, false},
	{"leave", videodist.ClusterUserLeave, false},
	{"join", videodist.ClusterUserJoin, false},
	{"resolve", videodist.ClusterResolve, false},
	{"catalog-offer", videodist.ClusterStreamArrival, true},
	{"catalog-depart", videodist.ClusterStreamDeparture, true},
}

// kindOf returns the vocabulary entry of a wire type name. Its name is
// a constant, so a parser that stores it keeps no new string.
func kindOf(name string) (eventKind, bool) {
	for i := range eventKinds {
		if eventKinds[i].name == name {
			return eventKinds[i], true
		}
	}
	return eventKind{}, false
}

// Routed maps the event onto the cluster event it applies as: its
// type's routed type, with the catalog_id carried through by the
// catalog types only. A type outside the vocabulary routes as type 0,
// which the cluster refuses (CheckEvent refuses it before that).
func (ev Event) Routed() videodist.ClusterEvent {
	k, _ := kindOf(ev.Type)
	out := videodist.ClusterEvent{Tenant: ev.Tenant, Type: k.typ, Stream: ev.Stream, User: ev.User, Install: ev.Install}
	if k.catalog {
		out.CatalogID = videodist.CatalogID(ev.CatalogID)
	}
	return out
}

// TypeName maps a routed event type back onto its wire name: the
// catalog name when catalog is set (the event or result carries a
// CatalogID), "" for a type with no wire name.
func TypeName(typ videodist.ClusterEventType, catalog bool) string {
	for i := range eventKinds {
		if eventKinds[i].typ == typ && eventKinds[i].catalog == catalog {
			return eventKinds[i].name
		}
	}
	return ""
}

// AppendDupAck appends the result line, newline included, that
// acknowledges a replayed line of seq without applying it.
func AppendDupAck(b []byte, seq uint64) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	return append(b, `,"dup":true}`+"\n"...)
}

// decodeEvent is ParseEvent's stdlib half, kept apart so that only this
// path pays for the decode target escaping to the heap.
func decodeEvent(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, fmt.Errorf("bad stream line: %w", err)
	}
	return ev, nil
}

// parseCanonical is ParseEvent's fast half: it reads a canonical line
// (a flat object of the event's keys with integer, boolean or
// escape-free ASCII string values, the shape AppendJSON writes) with an
// ndjson.Scanner, allocating only a catalog ID's string, which ids
// interns (nil interns nothing). Every line it accepts decodes exactly
// as encoding/json decodes it; ok false means "not provably canonical —
// use the stdlib", never an error of its own. The type is not checked
// beyond being a known token when present.
func parseCanonical(line []byte, ids *ndjson.Interner) (ev Event, ok bool) {
	s := ndjson.NewScanner(line)
	for s.Open('{'); s.More('}'); {
		switch k := s.Key(); string(k) {
		case "seq":
			ev.Seq = s.Uint64()
		case "tenant":
			ev.Tenant = s.Int()
		case "type":
			k, ok := kindOf(string(s.Str()))
			if !ok {
				s.Fail() // unknown token: let the stdlib path shape the error
			}
			ev.Type = k.name
		case "stream":
			ev.Stream = s.Int()
		case "user":
			ev.User = s.Int()
		case "install":
			ev.Install = s.Bool()
		case "catalog_id":
			ev.CatalogID = ids.String(s.Str())
		default:
			s.Fail()
		}
	}
	return ev, s.Done()
}

// resultHead reads the seq and dup mark of a result line in the shape
// every server of the protocol writes — {"seq":N first, then either
// exactly ,"dup":true} or no other seq or dup key — without decoding
// the rest. ok false means only a decode can tell.
func resultHead(line []byte) (seq int, dup, ok bool) {
	const head = `{"seq":`
	if !bytes.HasPrefix(line, []byte(head)) {
		return 0, false, false
	}
	i, n := len(head), len(line)
	neg := i < n && line[i] == '-'
	if neg {
		i++
	}
	ds := i
	for i < n && line[i] >= '0' && line[i] <= '9' {
		seq = seq*10 + int(line[i]-'0')
		i++
	}
	if i == ds || i-ds > 18 || line[ds] == '0' && i-ds > 1 {
		return 0, false, false
	}
	if neg {
		seq = -seq
	}
	rest := line[i:]
	if string(rest) == `,"dup":true}` {
		return seq, true, true
	}
	if len(rest) == 0 || rest[0] != ',' && rest[0] != '}' {
		return 0, false, false
	}
	// encoding/json matches keys in any letter case, so any other
	// three-letter string folding to seq or dup — or an escape or
	// non-ASCII byte that could spell one — leaves it to the decoder.
	for j, c := range rest {
		if c == '\\' || c >= 0x80 {
			return 0, false, false
		}
		if c == '"' && j+4 < len(rest) && rest[j+4] == '"' {
			if k := rest[j+1 : j+4]; foldsTo(k, "seq") || foldsTo(k, "dup") {
				return 0, false, false
			}
		}
	}
	return seq, false, true
}

// foldsTo reports whether b equals the lower-case ASCII word w in any
// letter case.
func foldsTo(b []byte, w string) bool {
	for i := range b {
		if b[i]|0x20 != w[i] {
			return false
		}
	}
	return true
}
