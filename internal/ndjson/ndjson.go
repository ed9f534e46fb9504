// Package ndjson holds the hand-rolled pieces the serving stack's
// NDJSON wires share: append encoders for the JSON values the hot
// paths emit (strings, floats, int slices) and the server-side line
// reader. The stream endpoint and its router, the catalog wire and the
// WAL record codec all use this one copy.
//
// Every encoder emits exactly the bytes encoding/json would for the
// same value, except that AppendString may leave the HTML characters
// <, > and & unescaped, which decodes identically.
package ndjson

import (
	"bufio"
	"encoding/json"
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

// ReadLine returns the next newline-terminated line, with the newline
// and any trailing \r stripped; blank lines come back empty for the
// caller to skip. The line aliases br's buffer, or *scratch when it is
// longer than the buffer, and is valid until the next call. On io.EOF
// the final unterminated line, if any, is returned alongside the error.
func ReadLine(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*scratch = append((*scratch)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			*scratch = append(*scratch, line...)
		}
		line = *scratch
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, err
}
