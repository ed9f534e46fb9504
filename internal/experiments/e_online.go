package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/exact"
	"repro/internal/generator"
	"repro/internal/online"
)

// E6Config parameterizes E6.
type E6Config struct {
	// Trials and instance dimensions.
	Trials, Streams, Users, M, MC int
	// Orders is the number of random arrival orders per instance.
	Orders int
	// Seed drives workload generation.
	Seed int64
}

// DefaultE6 returns the parameters behind mmdbench's E6 table.
func DefaultE6() E6Config {
	return E6Config{Trials: 8, Streams: 10, Users: 3, M: 2, MC: 1, Orders: 5, Seed: 106}
}

// E6OnlineRatio measures the Section 5 online algorithm: feasibility
// under every arrival order (Lemma 5.1) and the competitive ratio
// against exact optima (Theorem 5.4).
func E6OnlineRatio(cfg E6Config) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Online Allocate on small streams",
		Claim: "Lemma 5.1: no budget ever violated; Theorem 5.4: " +
			"competitive ratio <= 1 + 2*log2(mu)",
		Columns: []string{"trial", "mu", "bound", "worst ratio over orders",
			"violations"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ok := true
	for trial := 0; trial < cfg.Trials; trial++ {
		in, err := generator.SmallStreams{
			Base: generator.RandomMMD{
				Streams: cfg.Streams, Users: cfg.Users, M: cfg.M, MC: cfg.MC,
				Seed: rng.Int63(), Skew: 2,
			},
		}.Generate()
		if err != nil {
			return nil, err
		}
		norm, err := online.Normalize(in)
		if err != nil {
			return nil, err
		}
		if err := online.CheckSmallStreams(norm.Instance, norm.Mu()); err != nil {
			return nil, fmt.Errorf("E6: generator broke the hypothesis: %w", err)
		}
		opt, err := exact.Solve(in, exact.Options{})
		if err != nil {
			return nil, err
		}
		if opt.Value == 0 {
			continue
		}
		bound := norm.CompetitiveBound()
		worst := 0.0
		violations := 0
		for o := 0; o < cfg.Orders; o++ {
			al, err := online.NewAllocator(norm.Instance, norm.Mu())
			if err != nil {
				return nil, err
			}
			a := al.RunSequence(rng.Perm(in.NumStreams()))
			if a.CheckFeasible(in) != nil {
				violations++
			}
			r := opt.Value / math.Max(a.Utility(in), 1e-12)
			worst = math.Max(worst, r)
		}
		if violations > 0 || worst > bound+1e-9 {
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			d(trial), f1(norm.Mu()), f1(bound), f(worst), d(violations),
		})
	}
	t.Verdict = verdict(ok)
	t.Notes = "Each trial replays the same instance under several random arrival orders."
	return t, nil
}

// A3Config parameterizes A3.
type A3Config struct {
	// Streams/Users/M/MC and Seed as in E6.
	Streams, Users, M, MC int
	Seed                  int64
	// Factors scale mu (1 is the paper's choice).
	Factors []float64
}

// DefaultA3 returns the parameters behind mmdbench's A3 table.
func DefaultA3() A3Config {
	return A3Config{Streams: 30, Users: 6, M: 2, MC: 1, Seed: 113,
		Factors: []float64{0.25, 0.5, 1, 2, 4}}
}

// A3MuSensitivity measures the allocator's sensitivity to the
// exponential base: smaller mu admits more aggressively (risking budget
// violations once below the Lemma 5.1 threshold), larger mu is more
// conservative.
func A3MuSensitivity(cfg A3Config) (*Table, error) {
	t := &Table{
		ID:    "A3",
		Title: "Ablation: online allocator sensitivity to mu",
		Claim: "mu = 2*gamma*D + 2 balances admission aggressiveness against " +
			"the Lemma 5.1 feasibility guarantee",
		Columns: []string{"mu factor", "mu", "value", "feasible", "max server load"},
	}
	in, err := generator.SmallStreams{
		Base: generator.RandomMMD{
			Streams: cfg.Streams, Users: cfg.Users, M: cfg.M, MC: cfg.MC,
			Seed: cfg.Seed, Skew: 2,
		},
	}.Generate()
	if err != nil {
		return nil, err
	}
	norm, err := online.Normalize(in)
	if err != nil {
		return nil, err
	}
	ok := true
	for _, factor := range cfg.Factors {
		mu := norm.Mu() * factor
		if mu <= 1.5 {
			mu = 1.5
		}
		al, err := online.NewAllocator(norm.Instance, mu)
		if err != nil {
			return nil, err
		}
		a := al.RunSequence(nil)
		feasible := a.CheckFeasible(in) == nil
		maxLoad := 0.0
		for i := 0; i < norm.Instance.M(); i++ {
			maxLoad = math.Max(maxLoad, al.ServerLoad(i))
		}
		if factor >= 1 && !feasible {
			ok = false // at or above the paper's mu feasibility must hold
		}
		t.Rows = append(t.Rows, []string{
			f(factor), f1(mu), f1(a.Utility(in)), fmt.Sprintf("%v", feasible), f(maxLoad),
		})
	}
	t.Verdict = verdict(ok)
	t.Notes = "Factors < 1 void the Lemma 5.1 precondition; violations there are expected, " +
		"not a bug."
	return t, nil
}
