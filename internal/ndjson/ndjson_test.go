package ndjson

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// TestAppendMatchesStdlib pins the encoders byte for byte against
// encoding/json.
func TestAppendMatchesStdlib(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 0.25, 7.000201050012604, 1e-6, 9.99e-7, 2e-7,
		1e-5, 123456789, 1e20, 1e21, 1.5e300, -3e-300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
	for _, s := range []string{"", "ch-001", "offer", `we"ird\id`, "tab\there", "żółć", "\x7f", "line sep"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	for _, s := range [][]int{nil, {}, {3}, {-1, 0, 42}} {
		want, _ := json.Marshal(s)
		if got := AppendInts(nil, s); string(got) != string(want) {
			t.Errorf("AppendInts(%v) = %s, encoding/json %s", s, got, want)
		}
	}
	if Finite(math.NaN()) || Finite(math.Inf(-1)) || !Finite(math.MaxFloat64) {
		t.Fatal("Finite misclassifies")
	}
}

// TestReadLine covers the framing every NDJSON server shares: newline
// and trailing \r stripped, blank lines kept empty, lines longer than
// the buffer stitched, a final unterminated line returned with io.EOF.
func TestReadLine(t *testing.T) {
	long := strings.Repeat("x", 40)
	br := bufio.NewReaderSize(strings.NewReader("a\r\n\n"+long+"\nlast"), 16)
	var scratch []byte
	for _, want := range []string{"a", "", long} {
		line, err := ReadLine(br, &scratch, 0)
		if err != nil || string(line) != want {
			t.Fatalf("ReadLine = %q, %v; want %q", line, err, want)
		}
	}
	if line, err := ReadLine(br, &scratch, 0); err != io.EOF || string(line) != "last" {
		t.Fatalf("final line = %q, %v; want \"last\", EOF", line, err)
	}
}

// TestReadLineLimit pins the cap: a line of exactly limit bytes is
// read, terminated or not, with or without a \r; one byte more fails
// with ErrLineTooLong naming the limit, before the reader has buffered
// more than the limit plus its buffer.
func TestReadLineLimit(t *testing.T) {
	const limit, size = 64, 16
	at := strings.Repeat("x", limit)
	for _, tail := range []string{"\n", "\r\n"} {
		br := bufio.NewReaderSize(strings.NewReader(at+tail+"next\n"), size)
		var scratch []byte
		if line, err := ReadLine(br, &scratch, limit); err != nil || string(line) != at {
			t.Fatalf("line of exactly the cap (tail %q) = %d bytes, %v", tail, len(line), err)
		}
		if line, err := ReadLine(br, &scratch, limit); err != nil || string(line) != "next" {
			t.Fatalf("line after the capped one = %q, %v", line, err)
		}
	}
	var scratch []byte
	br := bufio.NewReaderSize(strings.NewReader(at), size)
	if line, err := ReadLine(br, &scratch, limit); err != io.EOF || string(line) != at {
		t.Fatalf("unterminated line of exactly the cap = %d bytes, %v", len(line), err)
	}
	for _, over := range []string{at + "y\n", at + "y", at + strings.Repeat("y", 10*limit) + "\n"} {
		var scratch []byte
		br := bufio.NewReaderSize(strings.NewReader(over), size)
		line, err := ReadLine(br, &scratch, limit)
		if !errors.Is(err, ErrLineTooLong) || line != nil {
			t.Fatalf("line of %d bytes = %d bytes, %v; want ErrLineTooLong", len(over), len(line), err)
		}
		if want := fmt.Sprint(limit); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the cap %s", err, want)
		}
		if cap(scratch) > 2*(limit+1+size) {
			t.Fatalf("reader buffered %d bytes for a %d-byte cap", cap(scratch), limit)
		}
	}
	// A short buffer reads the same lines with the cap at 0.
	br = bufio.NewReaderSize(strings.NewReader(at+"y\n"), size)
	if line, err := ReadLine(br, &scratch, 0); err != nil || len(line) != limit+1 {
		t.Fatalf("uncapped line = %d bytes, %v", len(line), err)
	}
}

// TestInterner pins the interning contract: one string per spelling,
// nothing allocated for a spelling already held, a table String bounds,
// and Lookup and Keep, which leave the bound to their caller.
func TestInterner(t *testing.T) {
	var in Interner
	a := in.String([]byte("ch-001"))
	b := in.String([]byte("ch-001"))
	if a != "ch-001" || b != a || len(in.m) != 1 {
		t.Fatalf("String = %q, %q (table %d)", a, b, len(in.m))
	}
	line := []byte("ch-001")
	if avg := testing.AllocsPerRun(100, func() { _ = in.String(line) }); avg != 0 {
		t.Fatalf("interned spelling allocates %.1f times", avg)
	}
	for i := 0; i < 3*maxInterned; i++ {
		if s := in.String([]byte(fmt.Sprintf("junk-%d", i))); s != fmt.Sprintf("junk-%d", i) {
			t.Fatalf("String = %q", s)
		}
	}
	if len(in.m) != maxInterned {
		t.Fatalf("table holds %d strings, bound %d", len(in.m), maxInterned)
	}
	// Lookup never adds; Keep adds past String's bound.
	if s := in.Lookup([]byte("kept")); s != "kept" || len(in.m) != maxInterned {
		t.Fatalf("Lookup = %q (table %d)", s, len(in.m))
	}
	in.Keep("kept")
	kept := []byte("kept")
	if s := in.Lookup(kept); s != "kept" || len(in.m) != maxInterned+1 {
		t.Fatalf("after Keep: Lookup = %q (table %d)", s, len(in.m))
	}
	if avg := testing.AllocsPerRun(100, func() { _ = in.Lookup(kept) }); avg != 0 {
		t.Fatalf("kept spelling allocates %.1f times", avg)
	}
	var none *Interner
	none.Keep("x")
	if s := none.String([]byte("x")); s != "x" {
		t.Fatalf("nil Interner String = %q", s)
	}
	if s := none.Lookup([]byte("x")); s != "x" {
		t.Fatalf("nil Interner Lookup = %q", s)
	}
}
