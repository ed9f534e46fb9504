// Package ndjson holds the hand-rolled pieces the serving stack's
// NDJSON wires share: append encoders for the JSON values the hot
// paths emit (strings, floats, int slices), the server-side line
// reader, the flat Scanner that reads canonical lines back, and the
// string interning its line decoders share. The stream endpoint and
// its router, the catalog wire and the WAL record codec all use this
// one copy.
//
// Every encoder emits exactly the bytes encoding/json would for the
// same value, except that AppendString may leave the HTML characters
// <, > and & unescaped, which decodes identically. Every line the
// Scanner reads decodes as encoding/json decodes it; a line it cannot
// prove canonical is left to encoding/json.
package ndjson

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// AppendString appends s as a JSON string: a straight copy for the
// plain ASCII the protocols carry in practice, encoding/json for
// anything that needs escaping.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			quoted, _ := json.Marshal(s)
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends a finite float64 in encoding/json's format: the
// shortest decimal that round-trips, in exponent form only below 1e-6
// or from 1e21 up. JSON has no form for NaN or ±Inf; callers check
// Finite first.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// Finite reports whether f has a JSON encoding.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// AppendInts appends s as encoding/json does: nil as null, anything
// else as an array.
func AppendInts(b []byte, s []int) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// ErrLineTooLong reports a line over ReadLine's limit.
var ErrLineTooLong = errors.New("line too long")

// ReadLine returns the next newline-terminated line, with the newline
// and any trailing \r stripped; blank lines come back empty for the
// caller to skip. The line aliases br's buffer, or *scratch when it is
// longer than the buffer, and is valid until the next call. On io.EOF
// the final unterminated line, if any, is returned alongside the error.
//
// A positive limit caps the stripped line at limit bytes: a longer one
// fails with an error matching ErrLineTooLong that names the limit, and
// *scratch never holds more than limit+1 bytes plus br's buffer size.
// The reader is then somewhere inside that line, so the caller ends
// the stream. A limit of 0 or less reads lines of any length.
func ReadLine(br *bufio.Reader, scratch *[]byte, limit int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*scratch = append((*scratch)[:0], line...)
		for err == bufio.ErrBufferFull {
			// No newline yet, so at most the last byte is a \r the
			// strip below would drop.
			if limit > 0 && len(*scratch) > limit+1 {
				return nil, LineTooLong(limit)
			}
			line, err = br.ReadSlice('\n')
			*scratch = append(*scratch, line...)
		}
		line = *scratch
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if limit > 0 && len(line) > limit {
		return nil, LineTooLong(limit)
	}
	return line, err
}

// LineTooLong is the error ReadLine returns for a line over limit: it
// matches ErrLineTooLong and names the limit. A server that refuses a
// line under its cap by another measure answers with it too.
func LineTooLong(limit int) error {
	return fmt.Errorf("%w: over %d bytes", ErrLineTooLong, limit)
}

// Interner hands out one shared string per spelling it holds, so a
// decoder that meets the same IDs line after line allocates each of
// them once. String keeps what it is shown up to maxInterned strings:
// past that, junk a client sends cannot grow the table, and every new
// spelling is allocated as it would be without it. Lookup and Keep
// leave the bound to a caller whose table is bounded by other means.
// The zero value is ready; a nil *Interner interns nothing. An
// Interner is not safe for concurrent use.
type Interner struct{ m map[string]string }

// maxInterned bounds the table String fills: far more IDs than a
// stream connection's traffic names in practice, and a few tens of KiB
// at most.
const maxInterned = 1024

// String returns the string b spells, and keeps it while the table
// holds fewer than maxInterned strings.
func (t *Interner) String(b []byte) string {
	s, held := t.lookup(b)
	if !held && t != nil && len(t.m) < maxInterned {
		t.Keep(s)
	}
	return s
}

// Lookup returns the held string b spells, or a new one the table does
// not keep.
func (t *Interner) Lookup(b []byte) string {
	s, _ := t.lookup(b)
	return s
}

func (t *Interner) lookup(b []byte) (string, bool) {
	if t != nil {
		if s, ok := t.m[string(b)]; ok {
			return s, true
		}
	}
	return string(b), false
}

// Keep adds s to the table, whatever the table's size.
func (t *Interner) Keep(s string) {
	if t == nil {
		return
	}
	if _, ok := t.m[s]; !ok {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
}
