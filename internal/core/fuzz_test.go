package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/mmd"
)

// solveCase is one randomized Solve property check, shared by the fuzz
// target and its seeded table-driven twin.
type solveCase struct {
	seed                  int64
	streams, users, m, mc int
	skew                  float64
}

// seededCases is the corpus: it seeds the fuzzer and doubles as the
// deterministic table for -short runs.
var seededCases = []solveCase{
	{seed: 1, streams: 10, users: 4, m: 1, mc: 1, skew: 1},
	{seed: 2, streams: 12, users: 5, m: 3, mc: 2, skew: 8},
	{seed: 3, streams: 8, users: 3, m: 2, mc: 1, skew: 64},
	{seed: 4, streams: 14, users: 6, m: 4, mc: 3, skew: 4},
	{seed: 5, streams: 1, users: 1, m: 1, mc: 1, skew: 1},
	{seed: 6, streams: 9, users: 2, m: 2, mc: 2, skew: 1024},
}

// clampCase maps arbitrary fuzz inputs into the supported instance
// family (dimensions bounded so a fuzz iteration stays fast).
func clampCase(c solveCase) solveCase {
	mod := func(v, lo, hi int) int {
		n := hi - lo + 1
		return lo + ((v%n)+n)%n
	}
	c.streams = mod(c.streams, 1, 14)
	c.users = mod(c.users, 1, 6)
	c.m = mod(c.m, 1, 4)
	c.mc = mod(c.mc, 1, 3)
	if c.skew < 1 || c.skew > 1<<20 || c.skew != c.skew {
		c.skew = 1
	}
	return c
}

// generate builds the case's instance.
func (c solveCase) generate(t *testing.T) *mmd.Instance {
	t.Helper()
	in, err := generator.RandomMMD{
		Streams: c.streams, Users: c.users, M: c.m, MC: c.mc,
		Seed: c.seed, Skew: c.skew,
	}.Generate()
	if err != nil {
		t.Fatalf("%+v: generate: %v", c, err)
	}
	return in
}

// checkSolve asserts the Solve contract on one generated instance:
// the assignment is feasible, its value matches the report, and the
// pipeline never returns less than its own fallback candidates (the
// best single stream and the direct greedy). A workspace that has just
// solved a larger and then a smaller instance of another shape must
// return exactly what the fresh Solve does, so no stale row, band slot
// or heap entry can leak from one re-solve into the next.
func checkSolve(t *testing.T, c solveCase) {
	t.Helper()
	in := c.generate(t)
	a, rep, err := core.Solve(in, core.Options{})
	if err != nil {
		t.Fatalf("%+v: solve: %v", c, err)
	}
	var ws core.Workspace
	larger := clampCase(solveCase{
		seed: c.seed + 1, streams: c.streams + 5, users: c.users + 3,
		m: c.m + 1, mc: c.mc + 1, skew: c.skew * 64,
	})
	larger.streams, larger.users = c.streams+5, c.users+3
	smaller := clampCase(solveCase{
		seed: c.seed + 2, streams: c.streams - 1, users: c.users - 1,
		m: c.m + 2, mc: c.mc + 2, skew: 1,
	})
	for _, other := range []solveCase{larger, smaller} {
		if _, _, err := ws.Solve(other.generate(t), core.Options{}); err != nil {
			t.Fatalf("%+v: workspace solve of %+v: %v", c, other, err)
		}
		got, gotRep, err := ws.Solve(in, core.Options{})
		if err != nil {
			t.Fatalf("%+v: workspace solve after %+v: %v", c, other, err)
		}
		if solveDigest(got, gotRep) != solveDigest(a, rep) {
			t.Fatalf("%+v: after solving %+v, the workspace returns %v %+v; a fresh solve %v %+v",
				c, other, got, *gotRep, a, *rep)
		}
	}
	if err := a.CheckFeasible(in); err != nil {
		t.Fatalf("%+v: infeasible assignment: %v", c, err)
	}
	const eps = 1e-9
	if got := a.Utility(in); got < rep.Value-eps || got > rep.Value+eps {
		t.Fatalf("%+v: report value %v != assignment utility %v", c, rep.Value, got)
	}
	if rep.Value < rep.SingleStreamValue-eps {
		t.Fatalf("%+v: value %v below single-stream candidate %v",
			c, rep.Value, rep.SingleStreamValue)
	}
	if rep.Value < rep.DirectGreedyValue-eps {
		t.Fatalf("%+v: value %v below direct-greedy candidate %v",
			c, rep.Value, rep.DirectGreedyValue)
	}
}

// FuzzSolveFeasible fuzzes the full Theorem 1.1 pipeline over random
// generator instances: Solve must always return a feasible assignment
// whose value is at least both fallback candidates reported in Report.
func FuzzSolveFeasible(f *testing.F) {
	for _, c := range seededCases {
		f.Add(c.seed, c.streams, c.users, c.m, c.mc, c.skew)
	}
	f.Fuzz(func(t *testing.T, seed int64, streams, users, m, mc int, skew float64) {
		checkSolve(t, clampCase(solveCase{
			seed: seed, streams: streams, users: users, m: m, mc: mc, skew: skew,
		}))
	})
}

// TestSolveFeasibleSeeded is the table-driven twin of FuzzSolveFeasible
// for -short runs: the same property over the fuzz corpus.
func TestSolveFeasibleSeeded(t *testing.T) {
	for _, c := range seededCases {
		checkSolve(t, clampCase(c))
	}
}
