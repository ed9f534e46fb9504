package ndjson

import "strconv"

// Scanner reads the canonical shape of an NDJSON line: objects and
// arrays holding integers, booleans, finite numbers, null and
// escape-free ASCII strings. Its caller walks the line key by key,
// reading each value with the method its field's type calls for, and
// any other shape marks the scan failed: the caller then decodes the
// line with encoding/json instead. A line the scanner reads decodes to
// the same value both ways, provided the caller fails the scan on a
// key it does not know (encoding/json matches keys in any letter case)
// and on a repeated object-valued key (see Once). Methods are no-ops
// once the scan has failed.
type Scanner struct {
	b     []byte
	i     int
	first bool // just past an opening bracket
	bad   bool
}

// NewScanner returns a Scanner at the start of line.
func NewScanner(line []byte) Scanner { return Scanner{b: line} }

// Fail marks the scan failed.
func (s *Scanner) Fail() { s.bad = true }

func (s *Scanner) ws() {
	for s.i < len(s.b) {
		// Every whitespace byte is at most ' ', so one compare passes the
		// bytes of a compact line.
		if c := s.b[s.i]; c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return
		}
		s.i++
	}
}

// Open consumes the bracket c that opens an object or array.
func (s *Scanner) Open(c byte) bool {
	s.ws()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		s.Fail()
		return false
	}
	s.i++
	s.first = true
	return true
}

// More reports whether another member or element follows in the
// object or array closed by close, consuming the separator or the
// closing bracket.
func (s *Scanner) More(close byte) bool {
	s.ws()
	if s.bad || s.i >= len(s.b) {
		s.Fail()
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
	s.Fail()
	return false
}

// Once fails the scan on a key seen before in the same object (whose
// keys so far are the bits in *seen). A repeated key holding a scalar
// or a list of scalars decodes last-wins both ways, but encoding/json
// merges a repeated object, or list of objects, into the first one,
// which the scanner does not reproduce.
func (s *Scanner) Once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.Fail()
	}
	*seen |= bit
}

// Key reads a member key and its colon.
func (s *Scanner) Key() []byte {
	k := s.Str()
	s.ws()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != ':' {
		s.Fail()
		return nil
	}
	s.i++
	return k
}

// Str reads an escape-free ASCII string. The bytes alias the line.
func (s *Scanner) Str() []byte {
	s.ws()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != '"' {
		s.Fail()
		return nil
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		if c := s.b[i]; !strByte[c] {
			if c != '"' {
				break
			}
			s.i = i + 1
			return s.b[start:i]
		}
	}
	s.Fail()
	return nil
}

// strByte marks the bytes Str reads inside a string: printable ASCII
// and DEL, but no quote or backslash. One load tests a byte.
var strByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// digits reads an unsigned JSON integer of at most max digits. It is
// small enough for the compiler to inline into Int and Uint64, which
// every event line calls.
func (s *Scanner) digits(max int) (v uint64) {
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		d := s.b[s.i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	if n := s.i - start; n == 0 || n > max || n > 1 && s.b[start] == '0' {
		s.Fail()
	}
	return v
}

// Int reads a JSON integer of at most nine digits into an int.
func (s *Scanner) Int() int {
	s.ws()
	if s.bad {
		return 0
	}
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	v := int(s.digits(9))
	if neg {
		v = -v
	}
	return v
}

// Uint64 reads an unsigned JSON integer of at most 18 digits.
func (s *Scanner) Uint64() uint64 {
	s.ws()
	if s.bad {
		return 0
	}
	return s.digits(18)
}

// Uint8 reads an unsigned JSON integer into a uint8.
func (s *Scanner) Uint8() uint8 {
	v := s.Uint64()
	if v > 255 {
		s.Fail()
	}
	return uint8(v)
}

// Float reads a JSON number into a float64, parsed exactly as
// encoding/json parses it.
func (s *Scanner) Float() float64 {
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
		s.Fail()
		return 0
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if digits() == 0 {
			s.Fail()
			return 0
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if digits() == 0 {
			s.Fail()
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.Fail()
	}
	return f
}

// Bool reads a JSON boolean.
func (s *Scanner) Bool() bool {
	s.ws()
	switch {
	case s.bad:
	case s.literal("true"):
		return true
	case s.literal("false"):
	default:
		s.Fail()
	}
	return false
}

// literal consumes lit if it comes next.
func (s *Scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// Null consumes a JSON null if it comes next.
func (s *Scanner) Null() bool {
	s.ws()
	return !s.bad && s.literal("null")
}

// Done reports a scan that read the whole line.
func (s *Scanner) Done() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}
