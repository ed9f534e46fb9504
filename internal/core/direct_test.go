package core

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/generator"
)

func TestDirectGreedyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 25; trial++ {
		in, err := generator.RandomMMD{
			Streams: 14, Users: 5, M: 3, MC: 2, Seed: rng.Int63(), Skew: 6,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		a := new(Workspace).directGreedy(in, in.InterestedUsers())
		if err := a.CheckFeasible(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDirectGreedyRespectsUserCapacities(t *testing.T) {
	in, err := generator.CableTV{Channels: 30, Gateways: 8, Seed: 122, EgressFraction: 0.5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	a := new(Workspace).directGreedy(in, in.InterestedUsers())
	if err := a.CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
	if a.Utility(in) <= 0 {
		t.Fatal("direct greedy produced zero utility on a dense instance")
	}
}

// TestSolveUsuallyBeatsThreshold: with the direct-greedy candidate the
// pipeline should dominate the utility-blind baseline on most seeds and
// decisively in aggregate.
func TestSolveUsuallyBeatsThreshold(t *testing.T) {
	wins, total := 0, 0
	var solverSum, thrSum float64
	for seed := int64(0); seed < 10; seed++ {
		in, err := generator.CableTV{
			Channels: 40, Gateways: 10, Seed: seed, EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := baseline.Threshold(in, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		sv, tv := a.Utility(in), b.Utility(in)
		solverSum += sv
		thrSum += tv
		total++
		if sv >= tv {
			wins++
		}
	}
	if wins < total*7/10 {
		t.Fatalf("solver won only %d/%d seeds", wins, total)
	}
	if solverSum < 1.15*thrSum {
		t.Fatalf("aggregate solver %v < 1.15x threshold %v", solverSum, thrSum)
	}
}

// TestPaperFaithfulModeExcludesDirectGreedy keeps ablations honest.
func TestPaperFaithfulModeExcludesDirectGreedy(t *testing.T) {
	in, err := generator.RandomMMD{Streams: 10, Users: 4, M: 2, MC: 1, Seed: 123, Skew: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := Solve(in, Options{PaperFaithfulLift: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirectGreedyValue != 0 {
		t.Fatalf("paper-faithful mode reported direct greedy value %v", rep.DirectGreedyValue)
	}
	_, rep2, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DirectGreedyValue <= 0 {
		t.Fatal("default mode should report the direct greedy candidate")
	}
	if rep2.Value < rep2.DirectGreedyValue-1e-9 {
		t.Fatal("Solve returned less than its own direct greedy candidate")
	}
}

func TestDirectGreedyEmptyInstance(t *testing.T) {
	in, err := generator.RandomMMD{Streams: 1, Users: 1, M: 1, MC: 1, Seed: 124}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Zero out all utilities: greedy must terminate with nothing.
	for u := range in.Users {
		for s := range in.Users[u].Utility {
			in.Users[u].Utility[s] = 0
		}
	}
	a := new(Workspace).directGreedy(in, in.InterestedUsers())
	if a.Pairs() != 0 {
		t.Fatal("direct greedy assigned zero-utility pairs")
	}
}
