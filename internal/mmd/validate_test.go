package mmd

import (
	"errors"
	"math"
	"testing"
)

// TestValidateMessages pins Validate's errors, message and class, for a
// bad value in every kind of row, each shape error and an overloaded
// load with positive utility, and the boundary values it accepts. The
// first fault in Validate's order is the one reported: budgets, then
// each stream's costs, then each user's utilities, capacities and
// loads.
func TestValidateMessages(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		edit  func(in *Instance)
		msg   string // "" when the instance is valid
		class error
	}{
		{"budget NaN", func(in *Instance) { in.Budgets[1] = nan },
			"budget 1 is NaN: mmd: negative value", ErrNegative},
		{"budget negative", func(in *Instance) { in.Budgets[0] = -1 },
			"budget 0 is -1: mmd: negative value", ErrNegative},
		{"budget -Inf", func(in *Instance) { in.Budgets[0] = -inf },
			"budget 0 is -Inf: mmd: negative value", ErrNegative},
		{"cost NaN", func(in *Instance) { in.Streams[1].Costs[0] = nan },
			"stream 1 cost 0 is NaN: mmd: non-finite value", ErrNonFinite},
		{"cost +Inf", func(in *Instance) { in.Streams[1].Costs[1] = inf },
			"stream 1 cost 1 is +Inf: mmd: non-finite value", ErrNonFinite},
		{"cost +Inf under an infinite budget", func(in *Instance) { in.Budgets[0], in.Streams[0].Costs[0] = inf, inf },
			"stream 0 cost 0 is +Inf: mmd: non-finite value", ErrNonFinite},
		{"cost -Inf", func(in *Instance) { in.Streams[0].Costs[1] = -inf },
			"stream 0 cost 1 is -Inf: mmd: non-finite value", ErrNonFinite},
		{"cost negative", func(in *Instance) { in.Streams[1].Costs[0] = -1 },
			"stream 1 cost 0 is -1: mmd: negative value", ErrNegative},
		{"cost above budget", func(in *Instance) { in.Streams[0].Costs[0] = 100 },
			"stream 0 cost 0 is 100 > budget 5: mmd: stream cost exceeds budget", ErrCostExceedsBudget},
		{"utility NaN", func(in *Instance) { in.Users[0].Utility[1] = nan },
			"user 0 utility for stream 1 is NaN: mmd: non-finite value", ErrNonFinite},
		{"utility +Inf", func(in *Instance) { in.Users[1].Utility[0] = inf },
			"user 1 utility for stream 0 is +Inf: mmd: non-finite value", ErrNonFinite},
		{"utility -Inf", func(in *Instance) { in.Users[1].Utility[1] = -inf },
			"user 1 utility for stream 1 is -Inf: mmd: non-finite value", ErrNonFinite},
		{"utility negative", func(in *Instance) { in.Users[0].Utility[0] = -2 },
			"user 0 utility for stream 0 is -2: mmd: negative value", ErrNegative},
		{"capacity NaN", func(in *Instance) { in.Users[1].Capacities[0] = nan },
			"user 1 capacity 0 is NaN: mmd: negative value", ErrNegative},
		{"capacity negative", func(in *Instance) { in.Users[0].Capacities[0] = -3 },
			"user 0 capacity 0 is -3: mmd: negative value", ErrNegative},
		{"capacity -Inf", func(in *Instance) { in.Users[0].Capacities[0] = -inf },
			"user 0 capacity 0 is -Inf: mmd: negative value", ErrNegative},
		{"load NaN", func(in *Instance) { in.Users[0].Loads[0][1] = nan },
			"user 0 load[0][1] is NaN: mmd: non-finite value", ErrNonFinite},
		{"load +Inf", func(in *Instance) { in.Users[1].Loads[0][0] = inf },
			"user 1 load[0][0] is +Inf: mmd: non-finite value", ErrNonFinite},
		{"load +Inf under an infinite capacity", func(in *Instance) { in.Users[0].Capacities[0], in.Users[0].Loads[0][0] = inf, inf },
			"user 0 load[0][0] is +Inf: mmd: non-finite value", ErrNonFinite},
		{"load -Inf", func(in *Instance) { in.Users[1].Loads[0][1] = -inf },
			"user 1 load[0][1] is -Inf: mmd: non-finite value", ErrNonFinite},
		{"load negative", func(in *Instance) { in.Users[0].Loads[0][0] = -1 },
			"user 0 load[0][0] is -1: mmd: negative value", ErrNegative},
		{"overloaded load with positive utility", func(in *Instance) { in.Users[0].Loads[0][0] = 10 },
			"user 0 stream 0: load 10 exceeds capacity 3 but utility 5 > 0 (run ZeroOverloadedUtilities): mmd: malformed instance shape", ErrShape},
		{"cost row length", func(in *Instance) { in.Streams[0].Costs = []float64{1} },
			"stream 0 (a) has 1 costs, want 2: mmd: malformed instance shape", ErrShape},
		{"utility row length", func(in *Instance) { in.Users[0].Utility = []float64{1} },
			"user 0 (u0) has 1 utilities, want 2: mmd: malformed instance shape", ErrShape},
		{"load rows against capacities", func(in *Instance) { in.Users[1].Loads = append(in.Users[1].Loads, []float64{0, 0}) },
			"user 1 has 2 load rows but 1 capacities: mmd: malformed instance shape", ErrShape},
		{"load row length", func(in *Instance) { in.Users[0].Loads[0] = []float64{1, 2, 3} },
			"user 0 load row 0 has 3 entries, want 2: mmd: malformed instance shape", ErrShape},
		{"first fault in a row wins", func(in *Instance) { in.Streams[1].Costs[0], in.Streams[1].Costs[1] = nan, -1 },
			"stream 1 cost 0 is NaN: mmd: non-finite value", ErrNonFinite},
		{"costs before users", func(in *Instance) { in.Users[0].Utility[0], in.Streams[1].Costs[1] = -1, 9 },
			"stream 1 cost 1 is 9 > budget 3: mmd: stream cost exceeds budget", ErrCostExceedsBudget},
		{"a user's loads before the next user", func(in *Instance) { in.Users[0].Loads[0][1], in.Users[1].Utility[1] = -1, nan },
			"user 0 load[0][1] is -1: mmd: negative value", ErrNegative},
		{"overloaded load after a skipped one", func(in *Instance) { in.Users[1].Loads[0][0], in.Users[1].Loads[0][1] = 10, 3 },
			"user 1 stream 1: load 3 exceeds capacity 2 but utility 4 > 0 (run ZeroOverloadedUtilities): mmd: malformed instance shape", ErrShape},
		{"cost at its budget", func(in *Instance) { in.Streams[1].Costs[1] = 3 }, "", nil},
		{"largest finite cost under an infinite budget", func(in *Instance) { in.Budgets[0], in.Streams[0].Costs[0] = inf, math.MaxFloat64 }, "", nil},
		{"largest finite utility", func(in *Instance) { in.Users[1].Utility[0] = math.MaxFloat64; in.Users[1].Loads[0][0] = 0 }, "", nil},
		{"load at its capacity", func(in *Instance) { in.Users[0].Loads[0][1] = 3 }, "", nil},
		{"largest finite load under an infinite capacity", func(in *Instance) { in.Users[0].Capacities[0], in.Users[0].Loads[0][1] = inf, math.MaxFloat64 }, "", nil},
		{"overloaded load with zero utility", func(in *Instance) { in.Users[1].Loads[0][0] = 10 }, "", nil},
		{"negative zeros", func(in *Instance) {
			in.Streams[0].Costs[1], in.Users[1].Utility[0], in.Users[1].Loads[0][0] = math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)
		}, "", nil},
	}
	for _, c := range cases {
		in := twoStreamInstance()
		c.edit(in)
		err := in.Validate()
		switch {
		case c.msg == "" && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", c.name, err)
		case c.msg == "":
		case err == nil:
			t.Errorf("%s: Validate() = nil, want %q", c.name, c.msg)
		case err.Error() != c.msg || !errors.Is(err, c.class):
			t.Errorf("%s: Validate() = %q, want %q (class %v)", c.name, err, c.msg, c.class)
		}
	}
}
