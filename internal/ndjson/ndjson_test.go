package ndjson

import (
	"bufio"
	"encoding/json"
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
		line, err := ReadLine(br, &scratch)
		if err != nil || string(line) != want {
			t.Fatalf("ReadLine = %q, %v; want %q", line, err, want)
		}
	}
	if line, err := ReadLine(br, &scratch); err != io.EOF || string(line) != "last" {
		t.Fatalf("final line = %q, %v; want \"last\", EOF", line, err)
	}
}
