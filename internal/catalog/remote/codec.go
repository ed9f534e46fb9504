package remote

import (
	"encoding/json"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/ndjson"
)

// The wire codec. Lines keep the JSON encoding/json gives wireReq and
// wireResp, so either end may be any JSON speaker. Requests, and the
// replies of the per-event ops (acquire, acquire-batch, lookup,
// release, settle-batch), are written by the append encoders below and
// read back by the flat scanner into values reused from line to line;
// what the scanner cannot prove canonical — escapes, other keys,
// snapshots and settlement lists in replies — goes through
// encoding/json.

// Request ops, interned by the scanner.
const (
	opAcquire       = "acquire"
	opAcquireBatch  = "acquire-batch"
	opLookup        = "lookup"
	opRelease       = "release"
	opSettleBatch   = "settle-batch"
	opSnapshot      = "snapshot"
	opReplayAcquire = "replay-acquire"
	opReplaySettle  = "replay-settle"
	opDangling      = "dangling"
)

// appendJSON appends r as encoding/json encodes it. ok false means a
// float with no JSON form: encoding/json then reports the error.
func (r *wireReq) appendJSON(b []byte) (_ []byte, ok bool) {
	b = append(b, `{"op":`...)
	b = ndjson.AppendString(b, r.Op)
	if r.ID != "" {
		b = append(b, `,"id":`...)
		b = ndjson.AppendString(b, string(r.ID))
	}
	if r.Tenant != 0 {
		b = append(b, `,"tenant":`...)
		b = strconv.AppendInt(b, int64(r.Tenant), 10)
	}
	if len(r.IDs) > 0 {
		b = append(b, `,"ids":[`...)
		for i, id := range r.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = ndjson.AppendString(b, string(id))
		}
		b = append(b, ']')
	}
	if r.Held {
		b = append(b, `,"held":true`...)
	}
	if r.Origin {
		b = append(b, `,"origin":true`...)
	}
	if len(r.Settles) > 0 {
		b = append(b, `,"settles":[`...)
		for i := range r.Settles {
			st := &r.Settles[i]
			if !ndjson.Finite(st.Full) || !ndjson.Finite(st.Charged) {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Op":`...)
			b = strconv.AppendUint(b, uint64(st.Op), 10)
			b = append(b, `,"ID":`...)
			b = ndjson.AppendString(b, string(st.ID))
			b = append(b, `,"Tenant":`...)
			b = strconv.AppendInt(b, int64(st.Tenant), 10)
			b = append(b, `,"Full":`...)
			b = ndjson.AppendFloat(b, st.Full)
			b = append(b, `,"Charged":`...)
			b = ndjson.AppendFloat(b, st.Charged)
			b = append(b, `,"Origin":`...)
			b = strconv.AppendBool(b, st.Origin)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.WantResults {
		b = append(b, `,"want_results":true`...)
	}
	if r.Scale != 0 {
		if !ndjson.Finite(r.Scale) {
			return b, false
		}
		b = append(b, `,"scale":`...)
		b = ndjson.AppendFloat(b, r.Scale)
	}
	return append(b, '}'), true
}

// appendJSON appends r as encoding/json encodes it. ok false means a
// shape left to encoding/json: a snapshot or settlement list, or a
// float with no JSON form.
func (r *wireResp) appendJSON(b []byte) (_ []byte, ok bool) {
	if r.Snapshot != nil || r.Settles != nil {
		return b, false
	}
	b = append(b, '{')
	start := len(b)
	if r.Ticket != nil {
		if b, ok = appendTicket(b, r.Ticket, `"ticket":`); !ok {
			return b, false
		}
	}
	if len(r.Tickets) > 0 {
		b = appendKey(b, start, `"tickets":[`)
		for i := range r.Tickets {
			sep := ""
			if i > 0 {
				sep = ","
			}
			if b, ok = appendTicket(b, &r.Tickets[i], sep); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	if r.Local != 0 {
		b = appendKey(b, start, `"local":`)
		b = strconv.AppendInt(b, int64(r.Local), 10)
	}
	if r.Refs != 0 {
		b = appendKey(b, start, `"refs":`)
		b = strconv.AppendInt(b, int64(r.Refs), 10)
	}
	if r.Evicted {
		b = appendKey(b, start, `"evicted":true`)
	}
	if len(r.Results) > 0 {
		b = appendKey(b, start, `"results":[`)
		for i, res := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Refs":`...)
			b = strconv.AppendInt(b, int64(res.Refs), 10)
			b = append(b, `,"Evicted":`...)
			b = strconv.AppendBool(b, res.Evicted)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Error != "" {
		b = appendKey(b, start, `"error":`)
		b = ndjson.AppendString(b, r.Error)
	}
	if r.Code != "" {
		b = appendKey(b, start, `"code":`)
		b = ndjson.AppendString(b, r.Code)
	}
	return append(b, '}'), true
}

// appendKey appends an object member's key (with its colon), after a
// comma unless the member is the first of the object opened at start.
func appendKey(b []byte, start int, key string) []byte {
	if len(b) > start {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendTicket appends prefix and then tk as encoding/json encodes a
// catalog.Ticket (untagged, so every field under its Go name).
func appendTicket(b []byte, tk *catalog.Ticket, prefix string) ([]byte, bool) {
	if !ndjson.Finite(tk.Scale) {
		return b, false
	}
	b = append(b, prefix...)
	b = append(b, `{"Local":`...)
	b = strconv.AppendInt(b, int64(tk.Local), 10)
	b = append(b, `,"Scale":`...)
	b = ndjson.AppendFloat(b, tk.Scale)
	b = append(b, `,"Refs":`...)
	b = strconv.AppendInt(b, int64(tk.Refs), 10)
	b = append(b, `,"SharedWith":`...)
	b = ndjson.AppendInts(b, tk.SharedWith)
	b = append(b, `,"Already":`...)
	b = strconv.AppendBool(b, tk.Already)
	b = append(b, `,"OriginPayer":`...)
	b = strconv.AppendBool(b, tk.OriginPayer)
	return append(b, '}'), true
}

// scanner reads the canonical shape of a wire line: objects and arrays
// holding integers, booleans, finite numbers, null and escape-free
// ASCII strings, no object-valued key twice. Anything else marks the
// scan failed, and the caller decodes the line with encoding/json
// instead; a line the scanner reads decodes to the same value both
// ways. Methods are no-ops once the scan has failed.
type scanner struct {
	b     []byte
	i     int
	first bool // just past an opening bracket
	bad   bool
}

func (s *scanner) fail() { s.bad = true }

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// open consumes the bracket c that opens an object or array.
func (s *scanner) open(c byte) bool {
	s.ws()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		s.fail()
		return false
	}
	s.i++
	s.first = true
	return true
}

// more reports whether another member or element follows in the
// object or array closed by close, consuming the separator or the
// closing bracket.
func (s *scanner) more(close byte) bool {
	s.ws()
	if s.bad || s.i >= len(s.b) {
		s.fail()
		return false
	}
	first := s.first
	s.first = false
	switch c := s.b[s.i]; {
	case c == close:
		s.i++
		return false
	case first:
		return true
	case c == ',':
		s.i++
		return true
	}
	s.fail()
	return false
}

// once fails the scan on a key seen before in the same object (whose
// keys so far are the bits in *seen). A repeated key holding a scalar
// or a list of scalars decodes last-wins both ways, but encoding/json
// merges a repeated object, or list of objects, into the first one,
// which the scanner does not reproduce.
func (s *scanner) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.fail()
	}
	*seen |= bit
}

// key reads a member key and its colon.
func (s *scanner) key() []byte {
	k := s.str()
	s.ws()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != ':' {
		s.fail()
		return nil
	}
	s.i++
	return k
}

// str reads an escape-free ASCII string.
func (s *scanner) str() []byte {
	s.ws()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != '"' {
		s.fail()
		return nil
	}
	s.i++
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		if c := s.b[s.i]; c == '\\' || c < 0x20 || c >= 0x80 {
			s.fail()
			return nil
		}
		s.i++
	}
	if s.i >= len(s.b) {
		s.fail()
		return nil
	}
	s.i++
	return s.b[start : s.i-1]
}

// digits reads an unsigned JSON integer of at most nine digits.
func (s *scanner) digits() int {
	v, start := 0, s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int(s.b[s.i]-'0')
		s.i++
	}
	if n := s.i - start; n == 0 || n > 9 || s.b[start] == '0' && n > 1 {
		s.fail()
	}
	return v
}

// int reads a JSON integer into an int.
func (s *scanner) int() int {
	s.ws()
	if s.bad {
		return 0
	}
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	v := s.digits()
	if neg {
		v = -v
	}
	return v
}

// uint8 reads a JSON integer into a uint8.
func (s *scanner) uint8() uint8 {
	s.ws()
	if s.bad {
		return 0
	}
	v := s.digits()
	if v > 255 {
		s.fail()
	}
	return uint8(v)
}

// float reads a JSON number into a float64, parsed exactly as
// encoding/json parses it.
func (s *scanner) float() float64 {
	s.ws()
	if s.bad {
		return 0
	}
	start := s.i
	digits := func() int {
		n := 0
		for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			s.i++
			n++
		}
		return n
	}
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if n := digits(); n == 0 || n > 1 && s.b[s.i-n] == '0' {
		s.fail()
		return 0
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if digits() == 0 {
			s.fail()
			return 0
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if digits() == 0 {
			s.fail()
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.fail()
	}
	return f
}

// bool reads a JSON boolean.
func (s *scanner) bool() bool {
	s.ws()
	switch {
	case s.bad:
	case s.literal("true"):
		return true
	case s.literal("false"):
	default:
		s.fail()
	}
	return false
}

// literal consumes lit if it comes next.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// null consumes a JSON null if it comes next.
func (s *scanner) null() bool {
	s.ws()
	return !s.bad && s.literal("null")
}

// done reports a scan that read the whole line.
func (s *scanner) done() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}

// wireOps are the request ops, and wireCodes the sentinel codes, that
// the scanner interns.
var (
	wireOps = []string{opAcquire, opAcquireBatch, opLookup, opRelease, opSettleBatch,
		opSnapshot, opReplayAcquire, opReplaySettle, opDangling}
	wireCodes = []string{codeUnknownID, codeNotBound, codeClosed}
)

// intern returns the member of known that b spells, or "".
func intern(b []byte, known []string) string {
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return ""
}

// decodeReq reads a request line into c.req: by scanReq when the line
// is canonical, else by encoding/json.
func (c *wireConn) decodeReq(line []byte) error {
	if c.scanReq(line) {
		return nil
	}
	c.req = wireReq{}
	return json.Unmarshal(line, &c.req)
}

// scanReq reads a canonical request line into c.req, its lists into
// arrays kept from line to line and its IDs through c.id. False means
// the line is not canonical, and c.req is garbage.
func (c *wireConn) scanReq(line []byte) bool {
	req := &c.req
	*req = wireReq{}
	s := scanner{b: line}
	var seen uint8
	for s.open('{'); s.more('}'); {
		switch k := s.key(); string(k) {
		case "op":
			if req.Op = intern(s.str(), wireOps); req.Op == "" {
				s.fail()
			}
		case "id":
			req.ID = c.id(s.str())
		case "tenant":
			req.Tenant = s.int()
		case "ids":
			ids := c.idBuf[:0]
			if ids == nil {
				ids = []catalog.ID{}
			}
			for s.open('['); s.more(']'); {
				ids = append(ids, c.id(s.str()))
			}
			c.idBuf, req.IDs = ids, ids
		case "held":
			req.Held = s.bool()
		case "origin":
			req.Origin = s.bool()
		case "settles":
			s.once(&seen, 1<<0)
			settles := c.settleBuf[:0]
			if settles == nil {
				settles = []catalog.Settlement{}
			}
			for s.open('['); s.more(']'); {
				settles = append(settles, c.settlement(&s))
			}
			c.settleBuf, req.Settles = settles, settles
		case "want_results":
			req.WantResults = s.bool()
		case "scale":
			req.Scale = s.float()
		default:
			s.fail()
		}
	}
	return s.done()
}

// settlement reads one catalog.Settlement object.
func (c *wireConn) settlement(s *scanner) catalog.Settlement {
	var st catalog.Settlement
	for s.open('{'); s.more('}'); {
		switch k := s.key(); string(k) {
		case "Op":
			st.Op = catalog.SettleOp(s.uint8())
		case "ID":
			st.ID = c.id(s.str())
		case "Tenant":
			st.Tenant = s.int()
		case "Full":
			st.Full = s.float()
		case "Charged":
			st.Charged = s.float()
		case "Origin":
			st.Origin = s.bool()
		default:
			s.fail()
		}
	}
	return st
}

// decodeResp reads a reply line into c.resp: by scanResp when the line
// is canonical, else by encoding/json.
func (c *Client) decodeResp(line []byte) error {
	if c.scanResp(line) {
		return nil
	}
	c.resp = wireResp{}
	return json.Unmarshal(line, &c.resp)
}

// scanResp reads a canonical reply line into c.resp, its ticket and
// lists into values kept from line to line; SharedWith lists are the
// caller's to keep, so each is carved from c.shared. False means the
// line is not canonical, and c.resp is garbage.
func (c *Client) scanResp(line []byte) bool {
	resp := &c.resp
	*resp = wireResp{}
	s := scanner{b: line}
	var seen uint8
	for s.open('{'); s.more('}'); {
		switch k := s.key(); string(k) {
		case "ticket":
			s.once(&seen, 1<<0)
			c.ticket = c.decodeTicket(&s)
			resp.Ticket = &c.ticket
		case "tickets":
			s.once(&seen, 1<<1)
			tickets := c.ticketBuf[:0]
			if tickets == nil {
				tickets = []catalog.Ticket{}
			}
			for s.open('['); s.more(']'); {
				tickets = append(tickets, c.decodeTicket(&s))
			}
			c.ticketBuf, resp.Tickets = tickets, tickets
		case "local":
			resp.Local = s.int()
		case "refs":
			resp.Refs = s.int()
		case "evicted":
			resp.Evicted = s.bool()
		case "results":
			s.once(&seen, 1<<2)
			results := c.resultBuf[:0]
			if results == nil {
				results = []catalog.SettleResult{}
			}
			for s.open('['); s.more(']'); {
				var res catalog.SettleResult
				for s.open('{'); s.more('}'); {
					switch k := s.key(); string(k) {
					case "Refs":
						res.Refs = s.int()
					case "Evicted":
						res.Evicted = s.bool()
					default:
						s.fail()
					}
				}
				results = append(results, res)
			}
			c.resultBuf, resp.Results = results, results
		case "error":
			resp.Error = string(s.str())
		case "code":
			code := s.str()
			if resp.Code = intern(code, wireCodes); resp.Code == "" {
				resp.Code = string(code)
			}
		default:
			s.fail()
		}
	}
	return s.done()
}

// decodeTicket reads one catalog.Ticket object.
func (c *Client) decodeTicket(s *scanner) catalog.Ticket {
	var tk catalog.Ticket
	for s.open('{'); s.more('}'); {
		switch k := s.key(); string(k) {
		case "Local":
			tk.Local = s.int()
		case "Scale":
			tk.Scale = s.float()
		case "Refs":
			tk.Refs = s.int()
		case "SharedWith":
			if s.null() {
				tk.SharedWith = nil
				break
			}
			var buf [16]int
			held := buf[:0]
			for s.open('['); s.more(']'); {
				held = append(held, s.int())
			}
			if tk.SharedWith = c.shared.Make(len(held)); tk.SharedWith == nil {
				tk.SharedWith = []int{} // an empty array, which decodes non-nil
			}
			copy(tk.SharedWith, held)
		case "Already":
			tk.Already = s.bool()
		case "OriginPayer":
			tk.OriginPayer = s.bool()
		default:
			s.fail()
		}
	}
	return tk
}
