package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/generator"
	"repro/internal/reduction"
	"repro/internal/skew"
	"repro/internal/smd"
)

// E1Config parameterizes E1.
type E1Config struct {
	// Trials per instance size.
	Trials int
	// Sizes are the stream counts swept.
	Sizes []int
	// Users per instance.
	Users int
	// Seed drives workload generation.
	Seed int64
}

// DefaultE1 returns the parameters behind mmdbench's E1 table.
func DefaultE1() E1Config {
	return E1Config{Trials: 20, Sizes: []int{8, 10, 12}, Users: 4, Seed: 101}
}

// E1GreedyRatio measures the feasible (Theorem 2.8) and semi-feasible
// (Lemma 2.6) approximation ratios of the fixed greedy against exact
// optima on random unit-skew SMD instances.
func E1GreedyRatio(cfg E1Config) (*Table, error) {
	feasBound := 3 * math.E / (math.E - 1)
	semiBound := 2 * math.E / (math.E - 1)
	t := &Table{
		ID:    "E1",
		Title: "Fixed greedy on unit-skew SMD vs exact OPT",
		Claim: fmt.Sprintf("Theorem 2.8: feasible ratio <= 3e/(e-1) = %.3f; "+
			"Lemma 2.6: semi-feasible ratio <= 2e/(e-1) = %.3f", feasBound, semiBound),
		Columns: []string{"streams", "trials", "mean ratio", "max ratio",
			"mean semi ratio", "max semi ratio", "bound", "semi bound"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ok := true
	for _, n := range cfg.Sizes {
		var sumR, maxR, sumS, maxS float64
		trials := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			min, err := generator.RandomSMD{
				Streams: n, Users: cfg.Users, Seed: rng.Int63(), Skew: 1,
			}.Generate()
			if err != nil {
				return nil, err
			}
			in := smd.FromMMD(min)
			res, err := smd.FixedGreedy(in)
			if err != nil {
				return nil, err
			}
			opt, err := exact.Solve(min, exact.Options{})
			if err != nil {
				return nil, err
			}
			if opt.Value == 0 {
				continue
			}
			trials++
			r := opt.Value / math.Max(res.BestValue, 1e-12)
			s := opt.Value / math.Max(res.SemiBestValue, 1e-12)
			sumR += r
			sumS += s
			maxR = math.Max(maxR, r)
			maxS = math.Max(maxS, s)
		}
		if maxR > feasBound+1e-9 || maxS > semiBound+1e-9 {
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			d(n), d(trials), f(sumR / float64(trials)), f(maxR),
			f(sumS / float64(trials)), f(maxS), f(feasBound), f(semiBound),
		})
	}
	t.Verdict = verdict(ok)
	t.Notes = "OPT from branch-and-bound; ratios are OPT/value (>= 1, smaller is better)."
	return t, nil
}

// E2Config parameterizes E2.
type E2Config struct {
	// Trials and dimensions as in E1.
	Trials, Streams, Users int
	// Seed drives workload generation.
	Seed int64
}

// DefaultE2 returns the parameters behind mmdbench's E2 table.
func DefaultE2() E2Config { return E2Config{Trials: 25, Streams: 10, Users: 4, Seed: 102} }

// E2ReducedBudget measures Theorem 2.5: greedy's semi-feasible value is
// at least (1-1/e) times the optimum with budget reduced by the largest
// stream cost.
func E2ReducedBudget(cfg E2Config) (*Table, error) {
	factor := 1 - 1/math.E
	t := &Table{
		ID:    "E2",
		Title: "Greedy vs optimum with reduced budget",
		Claim: fmt.Sprintf("Theorem 2.5: w(greedy) >= (1-1/e) = %.3f of OPT(B - c_max)", factor),
		Columns: []string{"trials", "mean w/OPT-", "min w/OPT-", "bound",
			"mean w(aug)/OPT", "min w(aug)/OPT"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sum, minR, sumAug, minAug float64
	minR, minAug = math.Inf(1), math.Inf(1)
	trials := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		min, err := generator.RandomSMD{
			Streams: cfg.Streams, Users: cfg.Users, Seed: rng.Int63(), Skew: 1,
		}.Generate()
		if err != nil {
			return nil, err
		}
		in := smd.FromMMD(min)
		res, err := smd.Greedy(in)
		if err != nil {
			return nil, err
		}
		// Reduced-budget optimum.
		reduced := min.Clone()
		cmax := 0.0
		for s := range reduced.Streams {
			cmax = math.Max(cmax, reduced.Streams[s].Costs[0])
		}
		reduced.Budgets[0] = math.Max(0, reduced.Budgets[0]-cmax)
		for s := range reduced.Streams {
			// Streams larger than the reduced budget cannot be chosen;
			// drop them to keep the instance valid.
			if reduced.Streams[s].Costs[0] > reduced.Budgets[0] {
				reduced.Streams[s].Costs[0] = reduced.Budgets[0]
				for u := range reduced.Users {
					reduced.Users[u].Utility[s] = 0
					for j := range reduced.Users[u].Loads {
						reduced.Users[u].Loads[j][s] = 0
					}
				}
			}
		}
		optReduced, err := exact.Solve(reduced, exact.Options{})
		if err != nil {
			return nil, err
		}
		opt, err := exact.Solve(min, exact.Options{})
		if err != nil {
			return nil, err
		}
		if opt.Value == 0 {
			continue
		}
		trials++
		if optReduced.Value > 0 {
			r := res.SemiValue / optReduced.Value
			sum += r
			minR = math.Min(minR, r)
		} else {
			sum += 1
			minR = math.Min(minR, 1)
		}
		aug := res.AugmentedValue / opt.Value
		sumAug += aug
		minAug = math.Min(minAug, aug)
	}
	ok := minR >= factor-1e-9 && minAug >= factor-1e-9
	t.Rows = append(t.Rows, []string{
		d(trials), f(sum / float64(trials)), f(minR), f(factor),
		f(sumAug / float64(trials)), f(minAug),
	})
	t.Verdict = verdict(ok)
	t.Notes = "w(aug) is w(A_k) + residual(S_{k+1}), the Lemma 2.2 quantity; " +
		"zero-utility pairs are forced on streams exceeding the reduced budget."
	return t, nil
}

// E3Config parameterizes E3.
type E3Config struct {
	// Alphas are the target skews swept.
	Alphas []float64
	// Trials per skew; Streams/Users are instance dimensions.
	Trials, Streams, Users int
	// Seed drives workload generation.
	Seed int64
}

// DefaultE3 returns the parameters behind mmdbench's E3 table.
func DefaultE3() E3Config {
	return E3Config{Alphas: []float64{1, 4, 16, 64, 256}, Trials: 10, Streams: 10, Users: 4, Seed: 103}
}

// E3SkewSweep measures the classify-and-select ratio across local skew.
func E3SkewSweep(cfg E3Config) (*Table, error) {
	unitConst := 3 * math.E / (math.E - 1)
	t := &Table{
		ID:    "E3",
		Title: "Classify-and-select across local skew alpha",
		Claim: "Theorem 3.1: O(log 2*alpha)-approximation: ratio <= 2 * bands * (3e/(e-1))",
		Columns: []string{"target alpha", "measured alpha", "bands", "mean ratio",
			"max ratio", "bound"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ok := true
	for _, alpha := range cfg.Alphas {
		var sumR, maxR, measuredAlpha float64
		bands := 0
		trials := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			in, err := generator.RandomSMD{
				Streams: cfg.Streams, Users: cfg.Users, Seed: rng.Int63(), Skew: alpha,
			}.Generate()
			if err != nil {
				return nil, err
			}
			a, rep, err := skew.Solve(in, nil)
			if err != nil {
				return nil, err
			}
			opt, err := exact.Solve(in, exact.Options{})
			if err != nil {
				return nil, err
			}
			if opt.Value == 0 {
				continue
			}
			trials++
			r := opt.Value / math.Max(a.Utility(in), 1e-12)
			sumR += r
			maxR = math.Max(maxR, r)
			measuredAlpha = math.Max(measuredAlpha, rep.Alpha)
			if rep.Bands > bands {
				bands = rep.Bands
			}
		}
		bound := 2 * float64(1+int(math.Floor(math.Log2(math.Max(measuredAlpha, 1))))) * unitConst
		if maxR > bound+1e-9 {
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			f1(alpha), f1(measuredAlpha), d(bands), f(sumR / float64(trials)), f(maxR), f1(bound),
		})
	}
	t.Verdict = verdict(ok)
	return t, nil
}

// E4Config parameterizes E4.
type E4Config struct {
	// Ms and MCs are the grid of budget counts.
	Ms, MCs []int
	// Trials per cell; Streams/Users are instance dimensions.
	Trials, Streams, Users int
	// Seed drives workload generation.
	Seed int64
}

// DefaultE4 returns the parameters behind mmdbench's E4 table.
func DefaultE4() E4Config {
	return E4Config{Ms: []int{1, 2, 3}, MCs: []int{1, 2}, Trials: 8, Streams: 9, Users: 4, Seed: 104}
}

// E4PipelineRatio measures the full Theorem 1.1 pipeline across (m, mc).
func E4PipelineRatio(cfg E4Config) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Full pipeline across (m, mc)",
		Claim: "Theorem 4.4: O(m*mc*log(2*alpha*mc))-approximation in O(n^2) time",
		Columns: []string{"m", "mc", "mean ratio", "max ratio",
			"a-priori bound", "mean ratio (paper lift)"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ok := true
	for _, m := range cfg.Ms {
		for _, mc := range cfg.MCs {
			var sumR, maxR, bound, sumPaper float64
			trials := 0
			for trial := 0; trial < cfg.Trials; trial++ {
				in, err := generator.RandomMMD{
					Streams: cfg.Streams, Users: cfg.Users, M: m, MC: mc,
					Seed: rng.Int63(), Skew: 4,
				}.Generate()
				if err != nil {
					return nil, err
				}
				a, rep, err := core.Solve(in, core.Options{})
				if err != nil {
					return nil, err
				}
				ap, _, err := core.Solve(in, core.Options{PaperFaithfulLift: true})
				if err != nil {
					return nil, err
				}
				opt, err := exact.Solve(in, exact.Options{})
				if err != nil {
					return nil, err
				}
				if opt.Value == 0 {
					continue
				}
				trials++
				r := opt.Value / math.Max(a.Utility(in), 1e-12)
				sumR += r
				maxR = math.Max(maxR, r)
				sumPaper += opt.Value / math.Max(ap.Utility(in), 1e-12)
				bound = math.Max(bound, rep.ApproxFactor)
				if r > rep.ApproxFactor+1e-9 {
					ok = false
				}
			}
			t.Rows = append(t.Rows, []string{
				d(m), d(mc), f(sumR / float64(trials)), f(maxR), f1(bound),
				f(sumPaper / float64(trials)),
			})
		}
	}
	t.Verdict = verdict(ok)
	t.Notes = "Default pipeline uses the greedy-merging lift; the last column re-runs " +
		"with the paper-faithful single-set lift."
	return t, nil
}

// E5Config parameterizes E5.
type E5Config struct {
	// Grid of (m, mc) pairs.
	Grid [][2]int
}

// DefaultE5 returns the parameters behind mmdbench's E5 table.
func DefaultE5() E5Config {
	return E5Config{Grid: [][2]int{{2, 2}, {3, 2}, {3, 3}, {4, 3}, {5, 4}}}
}

// E5Tightness reproduces Section 4.2: the paper-faithful output
// transformation loses a factor of about m*mc on the adversarial family.
func E5Tightness(cfg E5Config) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Tightness of the reduction (Section 4.2 family)",
		Claim:   "The Theorem 4.3 analysis is tight up to a constant: loss ~ m*mc",
		Columns: []string{"m", "mc", "OPT", "lifted value", "measured loss", "m*mc"},
	}
	ok := true
	for _, dims := range cfg.Grid {
		m, mc := dims[0], dims[1]
		in, err := reduction.TightnessInstance(m, mc)
		if err != nil {
			return nil, err
		}
		view, err := reduction.ToSMD(in)
		if err != nil {
			return nil, err
		}
		opt := reduction.TightnessOptimal(in)
		optVal := opt.Utility(in)
		lifted, rep, err := reduction.Lift(view, opt)
		if err != nil {
			return nil, err
		}
		if err := lifted.CheckFeasible(in); err != nil {
			return nil, fmt.Errorf("E5: lifted infeasible: %w", err)
		}
		loss := optVal / rep.Value
		want := float64(m * mc)
		if math.Abs(loss-want) > 0.75 {
			ok = false
		}
		t.Rows = append(t.Rows, []string{d(m), d(mc), f1(optVal), f(rep.Value), f(loss), f1(want)})
	}
	t.Verdict = verdict(ok)
	t.Notes = "Uses the paper-faithful lift; the greedy-merging lift defeats this family (see A1)."
	return t, nil
}

// E7Config parameterizes E7.
type E7Config struct {
	// Sizes are (streams, users) pairs swept.
	Sizes [][2]int
	// Seed drives workload generation; Repeats is the median-of count.
	Seed    int64
	Repeats int
}

// DefaultE7 returns the parameters behind mmdbench's E7 table.
func DefaultE7() E7Config {
	return E7Config{
		Sizes:   [][2]int{{50, 10}, {100, 20}, {200, 40}, {400, 80}},
		Seed:    107,
		Repeats: 3,
	}
}

// E7GreedyScaling measures the fixed greedy's running time against the
// O(n^2) claim (n ~ streams * users).
func E7GreedyScaling(cfg E7Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Greedy running-time scaling",
		Claim:   "Section 2.1: Algorithm Greedy runs in O(|S| * n) = O(n^2) time",
		Columns: []string{"streams", "users", "n = |S|*|U|", "median time", "time/n^2 (ns)"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var firstNorm float64
	var xs, ys []float64
	ok := true
	for idx, size := range cfg.Sizes {
		nS, nU := size[0], size[1]
		min, err := generator.RandomSMD{
			Streams: nS, Users: nU, Seed: rng.Int63(), Skew: 1, Density: 0.5,
		}.Generate()
		if err != nil {
			return nil, err
		}
		in := smd.FromMMD(min)
		times := make([]time.Duration, 0, cfg.Repeats)
		for rep := 0; rep < cfg.Repeats; rep++ {
			start := time.Now()
			if _, err := smd.FixedGreedy(in); err != nil {
				return nil, err
			}
			times = append(times, time.Since(start))
		}
		med := medianDuration(times)
		n := float64(nS * nU)
		xs = append(xs, n)
		ys = append(ys, float64(med.Nanoseconds()))
		norm := float64(med.Nanoseconds()) / (n * n)
		if idx == 0 {
			firstNorm = norm
		} else if norm > 12*firstNorm {
			// time/n^2 should stay roughly flat; allow generous noise.
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			d(nS), d(nU), d(nS * nU), med.String(), fmt.Sprintf("%.3f", norm),
		})
	}
	t.Verdict = verdict(ok)
	t.Notes = "time/n^2 staying roughly flat across a 64x growth in n^2 confirms the quadratic shape."
	t.Figure = asciiLogLog("greedy time vs n", xs, ys, 2, 48, 12)
	return t, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// E8Config parameterizes E8.
type E8Config struct {
	// Trials and instance dimensions.
	Trials, Streams, Users int
	// Seeds are partial-enumeration seed sizes swept.
	Seeds []int
	// Seed drives workload generation.
	Seed int64
}

// DefaultE8 returns the parameters behind mmdbench's E8 table.
func DefaultE8() E8Config {
	return E8Config{Trials: 8, Streams: 10, Users: 4, Seeds: []int{0, 1, 2, 3}, Seed: 108}
}

// E8PartialEnum measures the Section 2.3 quality/time trade-off.
func E8PartialEnum(cfg E8Config) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Partial enumeration quality/time trade-off",
		Claim: "Section 2.3: larger seeds sharpen the constant (e/(e-1) semi-feasible " +
			"at seed 3) at polynomially higher cost",
		Columns: []string{"seed size", "mean ratio", "max ratio", "mean time"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	type inst struct {
		in  *smd.Instance
		opt float64
	}
	instances := make([]inst, 0, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		min, err := generator.RandomSMD{
			Streams: cfg.Streams, Users: cfg.Users, Seed: rng.Int63(), Skew: 1,
		}.Generate()
		if err != nil {
			return nil, err
		}
		opt, err := exact.Solve(min, exact.Options{})
		if err != nil {
			return nil, err
		}
		instances = append(instances, inst{in: smd.FromMMD(min), opt: opt.Value})
	}
	var prevMean float64
	ok := true
	for i, seedSize := range cfg.Seeds {
		var sumR, maxR float64
		var total time.Duration
		trials := 0
		for _, it := range instances {
			if it.opt == 0 {
				continue
			}
			start := time.Now()
			res, err := smd.PartialEnum(it.in, seedSize)
			if err != nil {
				return nil, err
			}
			total += time.Since(start)
			trials++
			r := it.opt / math.Max(res.BestValue, 1e-12)
			sumR += r
			maxR = math.Max(maxR, r)
		}
		mean := sumR / float64(trials)
		if i > 0 && mean > prevMean+0.25 {
			ok = false // quality should not degrade materially with seeds
		}
		prevMean = mean
		t.Rows = append(t.Rows, []string{
			d(seedSize), f(mean), f(maxR), (total / time.Duration(trials)).String(),
		})
	}
	t.Verdict = verdict(ok)
	return t, nil
}
