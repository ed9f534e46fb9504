package mmd

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// rows returns every float row of the instance, budgets first, in a
// fixed order.
func rows(in *Instance) [][]float64 {
	out := [][]float64{in.Budgets}
	for s := range in.Streams {
		out = append(out, in.Streams[s].Costs)
	}
	for u := range in.Users {
		usr := &in.Users[u]
		out = append(out, usr.Utility, usr.Capacities)
		out = append(out, usr.Loads...)
	}
	return out
}

// snapshot deep-copies every row of rows(in).
func snapshot(in *Instance) [][]float64 {
	var out [][]float64
	for _, r := range rows(in) {
		out = append(out, append([]float64(nil), r...))
	}
	return out
}

// TestCloneRowsAreCapped appends to each row of a clone in turn, and
// to its users' load-row headers through AddUtilityCapMeasure, and
// requires every other row of the clone unchanged: each row is capped
// at its length, so an append copies instead of writing its neighbour.
func TestCloneRowsAreCapped(t *testing.T) {
	in := twoStreamInstance()
	for k := range rows(in) {
		cp := in.Clone()
		want := snapshot(cp)
		row := rows(cp)[k]
		if grown := append(row, 99, 99, 99); len(grown) != len(row)+3 {
			t.Fatal("append lost elements")
		}
		if got := snapshot(cp); !reflect.DeepEqual(got, want) {
			t.Fatalf("appending to row %d wrote a neighbour:\ngot  %v\nwant %v", k, got, want)
		}
	}
	cp := in.Clone()
	want := snapshot(cp)
	if err := cp.AddUtilityCapMeasure([]float64{10, math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	for u := range cp.Users {
		usr, old := &cp.Users[u], &in.Users[u]
		if len(usr.Loads) != 2 || !reflect.DeepEqual(usr.Loads[0], old.Loads[0]) ||
			!reflect.DeepEqual(usr.Loads[1], old.Utility) || !reflect.DeepEqual(usr.Capacities[:1], old.Capacities) {
			t.Fatalf("user %d after AddUtilityCapMeasure: loads %v capacities %v", u, usr.Loads, usr.Capacities)
		}
		usr.Loads, usr.Capacities = usr.Loads[:1], usr.Capacities[:1]
	}
	if got := snapshot(cp); !reflect.DeepEqual(got, want) {
		t.Fatalf("AddUtilityCapMeasure wrote a neighbour:\ngot  %v\nwant %v", got, want)
	}
}

// TestCloneKeepsShape requires Clone to give exactly what CloneInto
// gives into a zero Instance — nil rows stay nil, and empty rows are
// nil — so reflect.DeepEqual and JSON see the same instance.
func TestCloneKeepsShape(t *testing.T) {
	ragged := &Instance{
		Streams: []Stream{{Name: "free"}, {Name: "empty", Costs: []float64{}}},
		Users: []User{
			{Name: "none", Utility: []float64{1, 0}},
			{Name: "empty", Utility: []float64{}, Loads: [][]float64{}, Capacities: []float64{}},
			{Name: "one", Utility: []float64{0, 2}, Loads: [][]float64{nil}, Capacities: []float64{4}},
		},
	}
	for _, in := range []*Instance{twoStreamInstance(), ragged, {}} {
		cp := in.Clone()
		ref := new(Instance)
		in.CloneInto(ref)
		if !reflect.DeepEqual(cp, ref) {
			t.Fatalf("Clone = %#v\nCloneInto a zero Instance = %#v", cp, ref)
		}
		got, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("Clone encodes as %s, CloneInto as %s", got, want)
		}
	}
	cp := ragged.Clone()
	if cp.Budgets != nil || cp.Streams[0].Costs != nil || cp.Users[0].Capacities != nil || cp.Users[2].Loads[0] != nil {
		t.Fatalf("a nil row of the source is not nil in the clone: %#v", cp)
	}
}
