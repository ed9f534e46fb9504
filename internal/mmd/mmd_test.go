package mmd

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// twoStreamInstance is a tiny hand-checked instance used across tests:
// two streams, two users, two server measures, one capacity each.
func twoStreamInstance() *Instance {
	return &Instance{
		Streams: []Stream{
			{Name: "a", Costs: []float64{2, 1}},
			{Name: "b", Costs: []float64{3, 2}},
		},
		Users: []User{
			{
				Name:       "u0",
				Utility:    []float64{5, 7},
				Loads:      [][]float64{{1, 2}},
				Capacities: []float64{3},
			},
			{
				Name:       "u1",
				Utility:    []float64{0, 4},
				Loads:      [][]float64{{1, 1}},
				Capacities: []float64{2},
			},
		},
		Budgets: []float64{5, 3},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := twoStreamInstance().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejectsShape(t *testing.T) {
	in := twoStreamInstance()
	in.Streams[0].Costs = []float64{1}
	if err := in.Validate(); !errors.Is(err, ErrShape) {
		t.Fatalf("Validate() = %v, want ErrShape", err)
	}
}

func TestValidateRejectsUtilityLengthMismatch(t *testing.T) {
	in := twoStreamInstance()
	in.Users[0].Utility = []float64{1}
	if err := in.Validate(); !errors.Is(err, ErrShape) {
		t.Fatalf("Validate() = %v, want ErrShape", err)
	}
}

func TestValidateRejectsNegativeCost(t *testing.T) {
	in := twoStreamInstance()
	in.Streams[1].Costs[0] = -1
	if err := in.Validate(); !errors.Is(err, ErrNegative) {
		t.Fatalf("Validate() = %v, want ErrNegative", err)
	}
}

func TestValidateRejectsNegativeBudget(t *testing.T) {
	in := twoStreamInstance()
	in.Budgets[0] = -2
	if err := in.Validate(); !errors.Is(err, ErrNegative) {
		t.Fatalf("Validate() = %v, want ErrNegative", err)
	}
}

func TestValidateRejectsCostAboveBudget(t *testing.T) {
	in := twoStreamInstance()
	in.Streams[0].Costs[0] = 100
	if err := in.Validate(); !errors.Is(err, ErrCostExceedsBudget) {
		t.Fatalf("Validate() = %v, want ErrCostExceedsBudget", err)
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	in := twoStreamInstance()
	in.Users[0].Utility[0] = math.NaN()
	if err := in.Validate(); err == nil {
		t.Fatal("Validate() = nil, want error for NaN utility")
	}
}

func TestValidateRejectsOverloadedUtility(t *testing.T) {
	in := twoStreamInstance()
	in.Users[0].Loads[0][0] = 10 // exceeds capacity 3 while utility > 0
	if err := in.Validate(); !errors.Is(err, ErrShape) {
		t.Fatalf("Validate() = %v, want ErrShape", err)
	}
}

func TestValidateAllowsInfiniteBudget(t *testing.T) {
	in := twoStreamInstance()
	in.Budgets[0] = math.Inf(1)
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil with infinite budget", err)
	}
}

func TestZeroOverloadedUtilities(t *testing.T) {
	in := twoStreamInstance()
	in.Users[0].Loads[0][0] = 10
	if n := in.ZeroOverloadedUtilities(); n != 1 {
		t.Fatalf("ZeroOverloadedUtilities() = %d, want 1", n)
	}
	if in.Users[0].Utility[0] != 0 {
		t.Fatalf("utility not zeroed: %v", in.Users[0].Utility[0])
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate() after repair = %v, want nil", err)
	}
}

func TestDimensions(t *testing.T) {
	in := twoStreamInstance()
	if got := in.NumStreams(); got != 2 {
		t.Errorf("NumStreams() = %d, want 2", got)
	}
	if got := in.NumUsers(); got != 2 {
		t.Errorf("NumUsers() = %d, want 2", got)
	}
	if got := in.M(); got != 2 {
		t.Errorf("M() = %d, want 2", got)
	}
	if got := in.MC(); got != 1 {
		t.Errorf("MC() = %d, want 1", got)
	}
	if got := in.SupportSize(); got != 3 {
		t.Errorf("SupportSize() = %d, want 3", got)
	}
}

func TestInputLength(t *testing.T) {
	in := twoStreamInstance()
	// budgets 2 + costs 4 + (utilities 2 + loads 2 + caps 1) * 2 users.
	want := 2 + 4 + 2*(2+2+1)
	if got := in.InputLength(); got != want {
		t.Errorf("InputLength() = %d, want %d", got, want)
	}
}

func TestStreamUtility(t *testing.T) {
	in := twoStreamInstance()
	if got := in.StreamUtility(0); got != 5 {
		t.Errorf("StreamUtility(0) = %v, want 5", got)
	}
	if got := in.StreamUtility(1); got != 11 {
		t.Errorf("StreamUtility(1) = %v, want 11", got)
	}
	if got := in.TotalUtility(); got != 16 {
		t.Errorf("TotalUtility() = %v, want 16", got)
	}
}

// TestCloneIsDeep overwrites every element and every load-row header of
// a clone and requires the source unchanged.
func TestCloneIsDeep(t *testing.T) {
	in := twoStreamInstance()
	want := snapshot(in)
	cp := in.Clone()
	for _, r := range rows(cp) {
		for i := range r {
			r[i] = 99
		}
	}
	for u := range cp.Users {
		for j := range cp.Users[u].Loads {
			cp.Users[u].Loads[j] = nil
		}
	}
	if got := snapshot(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clone shares memory with the original:\ngot  %v\nwant %v", got, want)
	}
}

func TestIsSMD(t *testing.T) {
	if twoStreamInstance().IsSMD() {
		t.Error("two-budget instance reported as SMD")
	}
	single := twoStreamInstance()
	single.Budgets = []float64{5}
	for s := range single.Streams {
		single.Streams[s].Costs = single.Streams[s].Costs[:1]
	}
	if !single.IsSMD() {
		t.Error("single-budget single-capacity instance not reported as SMD")
	}
}

func TestAddUtilityCapMeasure(t *testing.T) {
	in := twoStreamInstance()
	if err := in.AddUtilityCapMeasure([]float64{10, math.Inf(1)}); err != nil {
		t.Fatalf("AddUtilityCapMeasure() = %v", err)
	}
	if got := in.MC(); got != 2 {
		t.Fatalf("MC() after adding cap measure = %d, want 2", got)
	}
	u0 := &in.Users[0]
	for s := range u0.Utility {
		if u0.Loads[1][s] != u0.Utility[s] {
			t.Fatalf("cap measure load mismatch at stream %d: %v vs %v", s, u0.Loads[1][s], u0.Utility[s])
		}
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if err := in.AddUtilityCapMeasure([]float64{1}); err == nil {
		t.Fatal("AddUtilityCapMeasure with wrong length should fail")
	}
}

// TestInterestedUsersRowsAreCapped appends to each row of
// InterestedUsers in turn and requires every other row unchanged, as
// TestCloneRowsAreCapped does for Clone: the rows share one array, each
// capped at its length. It then gives a stream more users and requires
// the same of the rows InterestedUsersInto refills.
func TestInterestedUsersRowsAreCapped(t *testing.T) {
	in := &Instance{
		Streams: make([]Stream, 4),
		Users: []User{
			{Utility: []float64{1, 0, 2, 3}},
			{Utility: []float64{0, 0, 1, 1}},
			{Utility: []float64{4, 0, 0, 2}},
		},
	}
	check := func(rows, want [][]int) {
		t.Helper()
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("interested users = %v, want %v", rows, want)
		}
		for s := range rows {
			if grown := append(rows[s], 99, 99); len(grown) != len(want[s])+2 {
				t.Fatal("append lost elements")
			}
			if !reflect.DeepEqual(rows, want) {
				t.Fatalf("appending to stream %d's row wrote a neighbour: %v", s, rows)
			}
		}
	}
	rows := in.InterestedUsers()
	check(rows, [][]int{{0, 2}, nil, {0, 1}, {0, 1, 2}})
	in.Users[1].Utility[0], in.Users[2].Utility[1] = 5, 5
	rows = in.InterestedUsersInto(rows)
	check(rows, [][]int{{0, 1, 2}, {2}, {0, 1}, {0, 1, 2}})
}
