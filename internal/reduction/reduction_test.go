package reduction

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/generator"
	"repro/internal/mmd"
)

func randomMMD(seed int64, streams, users, m, mc int) *mmd.Instance {
	in, err := generator.RandomMMD{
		Streams: streams, Users: users, M: m, MC: mc, Seed: seed, Skew: 4,
	}.Generate()
	if err != nil {
		panic(err)
	}
	return in
}

func TestToSMDShape(t *testing.T) {
	in := randomMMD(1, 8, 4, 3, 2)
	view, err := ToSMD(in)
	if err != nil {
		t.Fatal(err)
	}
	if !view.SMD.IsSMD() {
		t.Fatal("reduced instance is not SMD")
	}
	if got := view.SMD.Budgets[0]; got != 3 {
		t.Fatalf("reduced budget = %v, want m = 3", got)
	}
	for u := range view.SMD.Users {
		if got := view.SMD.Users[u].Capacities[0]; got != 2 {
			t.Fatalf("user %d reduced capacity = %v, want mc = 2", u, got)
		}
	}
	// Reduced cost of each stream is sum_i c_i/B_i.
	for s := range in.Streams {
		want := 0.0
		for i, c := range in.Streams[s].Costs {
			want += c / in.Budgets[i]
		}
		if got := view.SMD.Streams[s].Costs[0]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("stream %d reduced cost = %v, want %v", s, got, want)
		}
	}
}

func TestToSMDSkipsInfiniteMeasures(t *testing.T) {
	in := randomMMD(2, 6, 3, 2, 1)
	in.Budgets[1] = math.Inf(1)
	view, err := ToSMD(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := view.SMD.Budgets[0]; got != 1 {
		t.Fatalf("reduced budget = %v, want 1 (one finite measure)", got)
	}
	if len(view.FiniteBudgets) != 1 || view.FiniteBudgets[0] != 0 {
		t.Fatalf("FiniteBudgets = %v, want [0]", view.FiniteBudgets)
	}
}

func TestToSMDNoFiniteBudget(t *testing.T) {
	in := randomMMD(3, 4, 2, 1, 1)
	in.Budgets[0] = math.Inf(1)
	if _, err := ToSMD(in); err == nil {
		t.Fatal("ToSMD accepted an instance with no finite budget")
	}
}

// TestLemma42FeasibleMapsFeasible: a feasible assignment for the
// original instance is feasible for the reduced one (the key claim in
// Lemma 4.2's proof).
func TestLemma42FeasibleMapsFeasible(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomMMD(seed, 6, 3, 2, 2)
		view, err := ToSMD(in)
		if err != nil {
			return false
		}
		// Build a random feasible assignment by greedy random packing.
		a := mmd.NewAssignment(in.NumUsers())
		for u := 0; u < in.NumUsers(); u++ {
			for s := 0; s < in.NumStreams(); s++ {
				if r.Float64() < 0.5 {
					a.Add(u, s)
					if a.CheckFeasible(in) != nil {
						a.Remove(u, s)
					}
				}
			}
		}
		if a.CheckFeasible(in) != nil {
			return false
		}
		return a.CheckFeasible(view.SMD) == nil
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLemma42Blowup: an assignment feasible for the reduced instance
// exceeds original budgets by at most factor m and capacities by at most
// factor mc.
func TestLemma42Blowup(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(32))}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomMMD(seed, 6, 3, 3, 2)
		view, err := ToSMD(in)
		if err != nil {
			return false
		}
		a := mmd.NewAssignment(in.NumUsers())
		for u := 0; u < in.NumUsers(); u++ {
			for s := 0; s < in.NumStreams(); s++ {
				if r.Float64() < 0.5 {
					a.Add(u, s)
					if a.CheckFeasible(view.SMD) != nil {
						a.Remove(u, s)
					}
				}
			}
		}
		m, mc := 3.0, 2.0
		for i := range in.Budgets {
			if a.ServerCost(in, i) > m*in.Budgets[i]+1e-9 {
				return false
			}
		}
		for u := range in.Users {
			for j := range in.Users[u].Capacities {
				if a.UserLoad(in, u, j) > mc*in.Users[u].Capacities[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetsProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(33))}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		weights := make([]float64, n)
		items := make([]int, n)
		total := 0.0
		for i := range weights {
			weights[i] = r.Float64() * 0.99
			items[i] = i
			total += weights[i]
		}
		sets := intervalSets(nil, items, func(i int) float64 { return weights[i] })

		// Every item appears exactly once.
		seen := make(map[int]int)
		for _, set := range sets {
			sum := 0.0
			for _, it := range set {
				seen[it]++
				sum += weights[it]
			}
			if sum > 1+1e-9 {
				return false // every set fits a unit budget
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		// At most 2*ceil(total)-1 sets (the paper's 2m-1 with W = m).
		limit := 2*int(math.Ceil(total+1e-9)) - 1
		if limit < 1 {
			limit = 1
		}
		return len(sets) <= limit
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetsEmpty(t *testing.T) {
	if sets := intervalSets(nil, nil, func(int) float64 { return 0 }); len(sets) != 0 {
		t.Fatalf("intervalSets(nil) = %v, want empty", sets)
	}
}

func TestLiftFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 30; trial++ {
		in := randomMMD(rng.Int63(), 8, 4, 3, 2)
		view, err := ToSMD(in)
		if err != nil {
			t.Fatal(err)
		}
		// Any assignment feasible for the reduced instance must lift to
		// a feasible assignment for the original.
		a := mmd.NewAssignment(in.NumUsers())
		for u := 0; u < in.NumUsers(); u++ {
			for s := 0; s < in.NumStreams(); s++ {
				if rng.Float64() < 0.6 {
					a.Add(u, s)
					if a.CheckFeasible(view.SMD) != nil {
						a.Remove(u, s)
					}
				}
			}
		}
		lifted, rep, err := Lift(view, a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := lifted.CheckFeasible(in); err != nil {
			t.Fatalf("trial %d: lifted infeasible: %v", trial, err)
		}
		if rep.Value != lifted.Utility(in) {
			t.Fatalf("trial %d: report value %v != utility %v", trial, rep.Value, lifted.Utility(in))
		}
		// Theorem 4.3 loss bound: value >= SMD value / ((2m-1)(2mc-1)).
		m, mc := 3.0, 2.0
		if rep.Value < rep.SMDValue/((2*m-1)*(2*mc-1))-1e-9 {
			t.Fatalf("trial %d: lift lost more than (2m-1)(2mc-1): %v -> %v",
				trial, rep.SMDValue, rep.Value)
		}
	}
}

func TestLiftEmptyAssignment(t *testing.T) {
	in := randomMMD(35, 5, 2, 2, 1)
	view, err := ToSMD(in)
	if err != nil {
		t.Fatal(err)
	}
	lifted, rep, err := Lift(view, mmd.NewAssignment(in.NumUsers()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value != 0 || lifted.Pairs() != 0 {
		t.Fatalf("lifting empty assignment gave value %v, pairs %d", rep.Value, lifted.Pairs())
	}
}

func TestTightnessInstanceShape(t *testing.T) {
	in, err := TightnessInstance(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("tightness instance invalid: %v", err)
	}
	if got := in.NumStreams(); got != 4 {
		t.Fatalf("NumStreams = %d, want m+mc-1 = 4", got)
	}
	if got := in.M(); got != 3 {
		t.Fatalf("M = %d, want 3", got)
	}
	if got := in.MC(); got != 2 {
		t.Fatalf("MC = %d, want 2", got)
	}
	opt := TightnessOptimal(in)
	if err := opt.CheckFeasible(in); err != nil {
		t.Fatalf("optimal assignment infeasible: %v", err)
	}
	if got := opt.Utility(in); math.Abs(got-3) > 1e-12 {
		t.Fatalf("optimal value = %v, want m = 3", got)
	}
}

func TestTightnessRejectsBadArgs(t *testing.T) {
	if _, err := TightnessInstance(0, 1); err == nil {
		t.Fatal("TightnessInstance(0,1) should fail")
	}
	if _, err := TightnessInstance(1, 0); err == nil {
		t.Fatal("TightnessInstance(1,0) should fail")
	}
}

// TestTightnessLossIsMMc reproduces Section 4.2: lifting the optimal
// reduced-instance assignment of the tightness family loses a factor of
// about m*mc.
func TestTightnessLossIsMMc(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 2}, {4, 3}} {
		m, mc := dims[0], dims[1]
		in, err := TightnessInstance(m, mc)
		if err != nil {
			t.Fatal(err)
		}
		view, err := ToSMD(in)
		if err != nil {
			t.Fatal(err)
		}
		opt := TightnessOptimal(in)
		if err := opt.CheckFeasible(view.SMD); err != nil {
			t.Fatalf("m=%d mc=%d: optimal not feasible for reduced instance: %v", m, mc, err)
		}
		lifted, rep, err := Lift(view, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := lifted.CheckFeasible(in); err != nil {
			t.Fatalf("lifted infeasible: %v", err)
		}
		optVal := float64(m)
		ratio := optVal / rep.Value
		// The adversarial ordering drives the loss to essentially m*mc.
		want := float64(m * mc)
		if math.Abs(ratio-want) > 0.5 {
			t.Fatalf("m=%d mc=%d: measured loss %v, want ~%v (lifted value %v)",
				m, mc, ratio, want, rep.Value)
		}
	}
}

// TestExactOnTightness confirms the exact solver agrees that OPT = m.
func TestExactOnTightness(t *testing.T) {
	in, err := TightnessInstance(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exact.Solve(in, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-3) > 1e-9 {
		t.Fatalf("exact OPT = %v, want 3", res.Value)
	}
}
