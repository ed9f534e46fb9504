package smd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mmd"
)

// Instance is a unit-skew SMD instance: one server budget, and per-user
// utility caps as the only client-side constraint.
type Instance struct {
	// StreamNames are optional labels used in reports; may be nil.
	StreamNames []string
	// Costs[s] is the server cost c(S) of stream s.
	Costs []float64
	// Budget is the server budget B.
	Budget float64
	// Utility[u][s] is w_u(S).
	Utility [][]float64
	// Caps[u] is the utility cap W_u; math.Inf(1) leaves u uncapped.
	Caps []float64
}

// NumStreams returns |S|.
func (in *Instance) NumStreams() int { return len(in.Costs) }

// NumUsers returns |U|.
func (in *Instance) NumUsers() int { return len(in.Utility) }

// Validation errors. Use errors.Is to classify.
var (
	// ErrShape indicates inconsistent dimensions.
	ErrShape = errors.New("smd: malformed instance shape")
	// ErrNegative indicates a negative cost, utility, budget, or cap.
	ErrNegative = errors.New("smd: negative value")
	// ErrCostExceedsBudget indicates a stream with c(S) > B.
	ErrCostExceedsBudget = errors.New("smd: stream cost exceeds budget")
	// ErrUtilityExceedsCap indicates a pair with w_u(S) > W_u, which
	// violates the paper's assumption that a stream a user cannot hold
	// carries no utility. Repair with ZeroOverloaded.
	ErrUtilityExceedsCap = errors.New("smd: single-stream utility exceeds user cap")
)

// Validate checks structural well-formedness.
func (in *Instance) Validate() error {
	if math.IsNaN(in.Budget) || in.Budget < 0 {
		return fmt.Errorf("budget is %v: %w", in.Budget, ErrNegative)
	}
	if in.StreamNames != nil && len(in.StreamNames) != len(in.Costs) {
		return fmt.Errorf("%d names for %d streams: %w", len(in.StreamNames), len(in.Costs), ErrShape)
	}
	for s, c := range in.Costs {
		switch {
		case math.IsNaN(c) || math.IsInf(c, 0):
			return fmt.Errorf("stream %d cost is %v: %w", s, c, ErrNegative)
		case c < 0:
			return fmt.Errorf("stream %d cost is %v: %w", s, c, ErrNegative)
		case c > in.Budget:
			return fmt.Errorf("stream %d cost %v > budget %v: %w", s, c, in.Budget, ErrCostExceedsBudget)
		}
	}
	if len(in.Caps) != len(in.Utility) {
		return fmt.Errorf("%d caps for %d users: %w", len(in.Caps), len(in.Utility), ErrShape)
	}
	for u := range in.Utility {
		if len(in.Utility[u]) != len(in.Costs) {
			return fmt.Errorf("user %d has %d utilities, want %d: %w",
				u, len(in.Utility[u]), len(in.Costs), ErrShape)
		}
		if math.IsNaN(in.Caps[u]) || in.Caps[u] < 0 {
			return fmt.Errorf("user %d cap is %v: %w", u, in.Caps[u], ErrNegative)
		}
		for s, w := range in.Utility[u] {
			switch {
			case math.IsNaN(w) || math.IsInf(w, 0) || w < 0:
				return fmt.Errorf("user %d utility for stream %d is %v: %w", u, s, w, ErrNegative)
			case w > in.Caps[u]:
				return fmt.Errorf("user %d stream %d: utility %v > cap %v: %w",
					u, s, w, in.Caps[u], ErrUtilityExceedsCap)
			}
		}
	}
	return nil
}

// ZeroOverloaded zeroes, in place, every utility w_u(S) > W_u (the paper
// assumes such streams carry no utility for the user). It returns the
// number of zeroed entries.
func (in *Instance) ZeroOverloaded() int {
	zeroed := 0
	for u := range in.Utility {
		for s, w := range in.Utility[u] {
			if w > in.Caps[u] {
				in.Utility[u][s] = 0
				zeroed++
			}
		}
	}
	return zeroed
}

// StreamValue returns w(S) = sum_u min(W_u, w_u(S)): the utility of a
// solution that transmits only stream S.
func (in *Instance) StreamValue(s int) float64 {
	total := 0.0
	for u := range in.Utility {
		total += math.Min(in.Caps[u], in.Utility[u][s])
	}
	return total
}

// SetValue returns the submodular set-function value w(T) =
// sum_u min(W_u, sum_{S in T} w_u(S)) of providing the stream set T —
// the utility achieved by the best semi-feasible assignment with range T
// (Lemma 2.1).
func (in *Instance) SetValue(streams []int) float64 {
	total := 0.0
	for u := range in.Utility {
		sum := 0.0
		for _, s := range streams {
			sum += in.Utility[u][s]
		}
		total += math.Min(in.Caps[u], sum)
	}
	return total
}

// Assignment maps users to streams for an SMD instance. It is an
// mmd.Assignment — sorted per-user stream sets and a sorted range, read
// without copying — with the SMD valuations on top, so a band's solution
// feeds the Section 4 lift as it is.
type Assignment struct {
	mmd.Assignment
}

// NewAssignment returns an empty assignment for numUsers users.
func NewAssignment(numUsers int) *Assignment {
	a := new(Assignment)
	a.Reset(numUsers)
	return a
}

// Cost returns c(A) = c(S(A)). Summation follows increasing stream
// index so results are bit-for-bit deterministic.
func (a *Assignment) Cost(in *Instance) float64 {
	total := 0.0
	for _, s := range a.RangeView() {
		total += in.Costs[s]
	}
	return total
}

// UserSum returns the uncapped per-user utility sum w_u(A). Summation
// follows increasing stream index so results are bit-for-bit
// deterministic.
func (a *Assignment) UserSum(in *Instance, u int) float64 {
	sum := 0.0
	for _, s := range a.UserView(u) {
		sum += in.Utility[u][s]
	}
	return sum
}

// Value returns the capped utility w(A) = sum_u min(W_u, w_u(A(u))).
// For feasible assignments this coincides with the plain sum; for
// semi-feasible assignments it is the paper's extended valuation.
func (a *Assignment) Value(in *Instance) float64 {
	total := 0.0
	for u := 0; u < a.NumUsers(); u++ {
		total += math.Min(in.Caps[u], a.UserSum(in, u))
	}
	return total
}

// capTolerance absorbs floating-point accumulation when comparing sums
// against budgets and caps.
const capTolerance = 1e-9

// CheckFeasible verifies the server budget and every user cap (recall
// that with unit skew the cap is the capacity constraint). nil means
// feasible.
func (a *Assignment) CheckFeasible(in *Instance) error {
	if cost := a.Cost(in); cost > in.Budget*(1+capTolerance)+capTolerance {
		return fmt.Errorf("smd: cost %v exceeds budget %v", cost, in.Budget)
	}
	for u := 0; u < a.NumUsers(); u++ {
		if sum := a.UserSum(in, u); sum > in.Caps[u]*(1+capTolerance)+capTolerance {
			return fmt.Errorf("smd: user %d sum %v exceeds cap %v", u, sum, in.Caps[u])
		}
	}
	return nil
}

// CheckSemiFeasible verifies the server budget and that each user
// overshoots its cap by at most one stream: removing the user's largest
// assigned stream must bring the sum back within the cap.
func (a *Assignment) CheckSemiFeasible(in *Instance) error {
	if cost := a.Cost(in); cost > in.Budget*(1+capTolerance)+capTolerance {
		return fmt.Errorf("smd: cost %v exceeds budget %v", cost, in.Budget)
	}
	for u := 0; u < a.NumUsers(); u++ {
		sum := a.UserSum(in, u)
		if sum <= in.Caps[u]*(1+capTolerance)+capTolerance {
			continue
		}
		largest := 0.0
		for _, s := range a.UserView(u) {
			if w := in.Utility[u][s]; w > largest {
				largest = w
			}
		}
		if sum-largest > in.Caps[u]*(1+capTolerance)+capTolerance {
			return fmt.Errorf("smd: user %d oversaturated by more than one stream (sum %v, largest %v, cap %v)",
				u, sum, largest, in.Caps[u])
		}
	}
	return nil
}
