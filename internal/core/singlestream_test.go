package core

import (
	"testing"

	"repro/internal/mmd"
)

// singleStreamInstance builds a 1-budget, 1-capacity instance from
// per-user utility rows and load rows (loads index streams).
func singleStreamInstance(costs []float64, budget float64, users []struct {
	utility, loads []float64
	capacity       float64
}) *mmd.Instance {
	in := &mmd.Instance{Budgets: []float64{budget}}
	for s, c := range costs {
		in.Streams = append(in.Streams, mmd.Stream{Name: "s", Costs: []float64{c}})
		_ = s
	}
	for _, u := range users {
		in.Users = append(in.Users, mmd.User{
			Name:       "u",
			Utility:    u.utility,
			Loads:      [][]float64{u.loads},
			Capacities: []float64{u.capacity},
		})
	}
	return in
}

func TestBestSingleStreamEdgeCases(t *testing.T) {
	type userSpec = struct {
		utility, loads []float64
		capacity       float64
	}
	const tol = 1e-12
	cases := []struct {
		name      string
		in        *mmd.Instance
		wantValue float64
		wantPairs map[int][]int // user -> streams
	}{
		{
			name: "all-zero utilities yield the empty assignment",
			in: singleStreamInstance([]float64{1, 1}, 10, []userSpec{
				{utility: []float64{0, 0}, loads: []float64{1, 1}, capacity: 5},
				{utility: []float64{0, 0}, loads: []float64{1, 1}, capacity: 5},
			}),
			wantValue: 0,
			wantPairs: map[int][]int{},
		},
		{
			name: "load exactly at the capacity+1e-12 boundary still fits",
			in: singleStreamInstance([]float64{1}, 10, []userSpec{
				{utility: []float64{3}, loads: []float64{1 + tol}, capacity: 1},
			}),
			wantValue: 3,
			wantPairs: map[int][]int{0: {0}},
		},
		{
			name: "load just past the tolerance is rejected",
			in: singleStreamInstance([]float64{1}, 10, []userSpec{
				{utility: []float64{3}, loads: []float64{1 + 3*tol}, capacity: 1},
			}),
			wantValue: 0,
			wantPairs: map[int][]int{},
		},
		{
			name: "user with no feasible stream is skipped, not the whole stream",
			in: singleStreamInstance([]float64{1, 1}, 10, []userSpec{
				// User 0 wants both streams but can hold neither.
				{utility: []float64{5, 5}, loads: []float64{2, 2}, capacity: 1},
				// User 1 can hold stream 1 only.
				{utility: []float64{0, 4}, loads: []float64{2, 1}, capacity: 1},
			}),
			wantValue: 4,
			wantPairs: map[int][]int{1: {1}},
		},
		{
			name: "aggregate utility across holders picks the winner",
			in: singleStreamInstance([]float64{1, 1}, 10, []userSpec{
				// Stream 0: one user at 6. Stream 1: two users at 4 each.
				{utility: []float64{6, 4}, loads: []float64{1, 1}, capacity: 2},
				{utility: []float64{0, 4}, loads: []float64{1, 1}, capacity: 2},
			}),
			wantValue: 8,
			wantPairs: map[int][]int{0: {1}, 1: {1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, val := new(Workspace).bestSingleStream(tc.in, tc.in.InterestedUsers())
			if val != tc.wantValue {
				t.Fatalf("value = %v, want %v", val, tc.wantValue)
			}
			pairs := 0
			for u := 0; u < a.NumUsers(); u++ {
				got := a.UserStreams(u)
				want := tc.wantPairs[u]
				pairs += len(got)
				if len(got) != len(want) {
					t.Fatalf("user %d streams = %v, want %v", u, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("user %d streams = %v, want %v", u, got, want)
					}
				}
			}
			// The fallback must honor its own feasibility promise.
			if err := a.CheckFeasible(tc.in); err != nil {
				t.Fatalf("bestSingleStream returned infeasible assignment: %v", err)
			}
		})
	}
}
