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
// read back by an ndjson.Scanner into values reused from line to line;
// what the scanner cannot prove canonical — escapes, other keys,
// snapshot replies — goes through encoding/json.

// Request ops, interned by the scanner.
const (
	opAcquire      = "acquire"
	opAcquireBatch = "acquire-batch"
	opLookup       = "lookup"
	opRelease      = "release"
	opSettleBatch  = "settle-batch"
	opSnapshot     = "snapshot"
)

// appendJSON appends r as encoding/json encodes it. ok false means a
// settlement cost with no JSON form, which encoding/json refuses too.
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
	return append(b, '}'), true
}

// appendJSON appends r as encoding/json encodes it. ok false means a
// shape left to encoding/json: a snapshot, or a float with no JSON
// form.
func (r *wireResp) appendJSON(b []byte) (_ []byte, ok bool) {
	if r.Snapshot != nil {
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

// wireOps are the request ops, and wireCodes the sentinel codes, that
// the scanner interns.
var (
	wireOps   = []string{opAcquire, opAcquireBatch, opLookup, opRelease, opSettleBatch, opSnapshot}
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
	s := ndjson.NewScanner(line)
	var seen uint8
	for s.Open('{'); s.More('}'); {
		switch k := s.Key(); string(k) {
		case "op":
			if req.Op = intern(s.Str(), wireOps); req.Op == "" {
				s.Fail()
			}
		case "id":
			req.ID = c.id(s.Str())
		case "tenant":
			req.Tenant = s.Int()
		case "ids":
			ids := c.idBuf[:0]
			if ids == nil {
				ids = []catalog.ID{}
			}
			for s.Open('['); s.More(']'); {
				ids = append(ids, c.id(s.Str()))
			}
			c.idBuf, req.IDs = ids, ids
		case "held":
			req.Held = s.Bool()
		case "origin":
			req.Origin = s.Bool()
		case "settles":
			s.Once(&seen, 1<<0)
			settles := c.settleBuf[:0]
			if settles == nil {
				settles = []catalog.Settlement{}
			}
			for s.Open('['); s.More(']'); {
				settles = append(settles, c.settlement(&s))
			}
			c.settleBuf, req.Settles = settles, settles
		case "want_results":
			req.WantResults = s.Bool()
		default:
			s.Fail()
		}
	}
	return s.Done()
}

// settlement reads one catalog.Settlement object.
func (c *wireConn) settlement(s *ndjson.Scanner) catalog.Settlement {
	var st catalog.Settlement
	for s.Open('{'); s.More('}'); {
		switch k := s.Key(); string(k) {
		case "Op":
			st.Op = catalog.SettleOp(s.Uint8())
		case "ID":
			st.ID = c.id(s.Str())
		case "Tenant":
			st.Tenant = s.Int()
		case "Full":
			st.Full = s.Float()
		case "Charged":
			st.Charged = s.Float()
		case "Origin":
			st.Origin = s.Bool()
		default:
			s.Fail()
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
	s := ndjson.NewScanner(line)
	var seen uint8
	for s.Open('{'); s.More('}'); {
		switch k := s.Key(); string(k) {
		case "ticket":
			s.Once(&seen, 1<<0)
			c.ticket = c.decodeTicket(&s)
			resp.Ticket = &c.ticket
		case "tickets":
			s.Once(&seen, 1<<1)
			tickets := c.ticketBuf[:0]
			if tickets == nil {
				tickets = []catalog.Ticket{}
			}
			for s.Open('['); s.More(']'); {
				tickets = append(tickets, c.decodeTicket(&s))
			}
			c.ticketBuf, resp.Tickets = tickets, tickets
		case "local":
			resp.Local = s.Int()
		case "refs":
			resp.Refs = s.Int()
		case "evicted":
			resp.Evicted = s.Bool()
		case "results":
			s.Once(&seen, 1<<2)
			results := c.resultBuf[:0]
			if results == nil {
				results = []catalog.SettleResult{}
			}
			for s.Open('['); s.More(']'); {
				var res catalog.SettleResult
				for s.Open('{'); s.More('}'); {
					switch k := s.Key(); string(k) {
					case "Refs":
						res.Refs = s.Int()
					case "Evicted":
						res.Evicted = s.Bool()
					default:
						s.Fail()
					}
				}
				results = append(results, res)
			}
			c.resultBuf, resp.Results = results, results
		case "error":
			resp.Error = string(s.Str())
		case "code":
			code := s.Str()
			if resp.Code = intern(code, wireCodes); resp.Code == "" {
				resp.Code = string(code)
			}
		default:
			s.Fail()
		}
	}
	return s.Done()
}

// decodeTicket reads one catalog.Ticket object.
func (c *Client) decodeTicket(s *ndjson.Scanner) catalog.Ticket {
	var tk catalog.Ticket
	for s.Open('{'); s.More('}'); {
		switch k := s.Key(); string(k) {
		case "Local":
			tk.Local = s.Int()
		case "Scale":
			tk.Scale = s.Float()
		case "Refs":
			tk.Refs = s.Int()
		case "SharedWith":
			if s.Null() {
				tk.SharedWith = nil
				break
			}
			var buf [16]int
			held := buf[:0]
			for s.Open('['); s.More(']'); {
				held = append(held, s.Int())
			}
			if tk.SharedWith = c.shared.Make(len(held)); tk.SharedWith == nil {
				tk.SharedWith = []int{} // an empty array, which decodes non-nil
			}
			copy(tk.SharedWith, held)
		case "Already":
			tk.Already = s.Bool()
		case "OriginPayer":
			tk.OriginPayer = s.Bool()
		default:
			s.Fail()
		}
	}
	return tk
}
