package videodist_test

import (
	"bytes"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/mmd"
	"repro/internal/online"
)

// TestIntegrationAllFamiliesAllSolvers runs every workload family
// through every solver and checks the universal invariants: validity,
// feasibility, and value <= upper bound.
func TestIntegrationAllFamiliesAllSolvers(t *testing.T) {
	families := map[string]func() (*mmd.Instance, error){
		"cabletv": func() (*mmd.Instance, error) {
			return generator.CableTV{Channels: 25, Gateways: 7, Seed: 61}.Generate()
		},
		"random-smd": func() (*mmd.Instance, error) {
			return generator.RandomSMD{Streams: 20, Users: 6, Seed: 62, Skew: 16}.Generate()
		},
		"random-mmd": func() (*mmd.Instance, error) {
			return generator.RandomMMD{Streams: 20, Users: 6, M: 3, MC: 2, Seed: 63, Skew: 8}.Generate()
		},
		"small-streams": func() (*mmd.Instance, error) {
			return generator.SmallStreams{
				Base: generator.RandomMMD{Streams: 30, Users: 6, M: 2, MC: 1, Seed: 64, Skew: 2},
			}.Generate()
		},
	}
	for name, gen := range families {
		name, gen := name, gen
		t.Run(name, func(t *testing.T) {
			in, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			ub := bounds.UpperBound(in)

			type solver struct {
				name string
				run  func() (*mmd.Assignment, error)
			}
			solvers := []solver{
				{"pipeline", func() (*mmd.Assignment, error) {
					a, _, err := core.Solve(in, core.Options{})
					return a, err
				}},
				{"pipeline-paper", func() (*mmd.Assignment, error) {
					a, _, err := core.Solve(in, core.Options{PaperFaithfulLift: true})
					return a, err
				}},
				{"threshold", func() (*mmd.Assignment, error) {
					return baseline.Threshold(in, nil, 1)
				}},
				{"static-greedy", func() (*mmd.Assignment, error) {
					return baseline.StaticGreedy(in)
				}},
				{"cheapest-first", func() (*mmd.Assignment, error) {
					return baseline.CheapestFirst(in)
				}},
			}
			if name == "small-streams" {
				solvers = append(solvers, solver{"online", func() (*mmd.Assignment, error) {
					a, _, err := online.Solve(in)
					return a, err
				}})
			}
			for _, s := range solvers {
				a, err := s.run()
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if err := a.CheckFeasible(in); err != nil {
					t.Fatalf("%s infeasible: %v", s.name, err)
				}
				if v := a.Utility(in); v > ub+1e-6 {
					t.Fatalf("%s value %v exceeds upper bound %v", s.name, v, ub)
				}
			}
		})
	}
}

// TestIntegrationSolveEncodeDecodeSolve: the JSON codec is transparent
// to the solver.
func TestIntegrationSolveEncodeDecodeSolve(t *testing.T) {
	in, err := generator.RandomMMD{Streams: 15, Users: 5, M: 2, MC: 2, Seed: 67, Skew: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	a1, r1, err := core.Solve(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmd.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	decoded, err := mmd.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a2, r2, err := core.Solve(decoded, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != r2.Value || !a1.Equal(a2) {
		t.Fatalf("solve after codec round-trip diverged: %v vs %v", r1.Value, r2.Value)
	}
}
