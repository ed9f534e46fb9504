package mmd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/buf"
)

// Stream is a single multicast stream in the server catalog.
type Stream struct {
	// Name identifies the stream in reports and traces.
	Name string `json:"name"`
	// Costs[i] is the server-side cost c_i(S) in measure i. Its length
	// must equal the number of server budgets of the enclosing instance.
	Costs []float64 `json:"costs"`
}

// User is a client (household or neighborhood video gateway).
type User struct {
	// Name identifies the user in reports and traces.
	Name string `json:"name"`
	// Utility[s] is w_u(S) for stream index s. Length must equal the
	// number of streams of the enclosing instance.
	Utility []float64 `json:"utility"`
	// Loads[j][s] is the load k^u_j(S) of stream s on capacity measure j.
	Loads [][]float64 `json:"loads"`
	// Capacities[j] is the cap K^u_j of capacity measure j. Length must
	// equal len(Loads). math.Inf(1) denotes an unconstrained measure.
	Capacities []float64 `json:"capacities"`
}

// Instance is a complete MMD problem instance.
//
// The zero value is an empty instance with no streams, users, or budgets.
// Instances handed to solvers should first pass Validate.
type Instance struct {
	// Streams is the server catalog.
	Streams []Stream `json:"streams"`
	// Users are the clients.
	Users []User `json:"users"`
	// Budgets[i] is the server budget B_i. math.Inf(1) denotes an
	// unconstrained measure.
	Budgets []float64 `json:"budgets"`
}

// NumStreams returns |S|.
func (in *Instance) NumStreams() int { return len(in.Streams) }

// NumUsers returns |U|.
func (in *Instance) NumUsers() int { return len(in.Users) }

// M returns the number of server cost measures, m.
func (in *Instance) M() int { return len(in.Budgets) }

// MC returns the maximal number of capacity constraints at a user, m_c.
func (in *Instance) MC() int {
	mc := 0
	for u := range in.Users {
		if n := len(in.Users[u].Capacities); n > mc {
			mc = n
		}
	}
	return mc
}

// InputLength returns the input length n: the total number of scalars in
// the instance description. The paper states ratios in terms of log n for
// inputs whose numbers are polynomial in n.
func (in *Instance) InputLength() int {
	n := len(in.Budgets)
	for s := range in.Streams {
		n += len(in.Streams[s].Costs)
	}
	for u := range in.Users {
		usr := &in.Users[u]
		n += len(usr.Utility) + len(usr.Capacities)
		for j := range usr.Loads {
			n += len(usr.Loads[j])
		}
	}
	return n
}

// StreamUtility returns the standalone total utility of stream s,
// w(S) = sum_u w_u(S), ignoring all capacity constraints.
func (in *Instance) StreamUtility(s int) float64 {
	total := 0.0
	for u := range in.Users {
		total += in.Users[u].Utility[s]
	}
	return total
}

// TotalUtility returns the sum of all utilities in the instance, an
// (extremely loose) upper bound on any assignment value.
func (in *Instance) TotalUtility() float64 {
	total := 0.0
	for u := range in.Users {
		for _, w := range in.Users[u].Utility {
			total += w
		}
	}
	return total
}

// Clone returns a deep copy of the instance. Mutating the copy never
// affects the original.
func (in *Instance) Clone() *Instance {
	out := new(Instance)
	in.CloneInto(out)
	return out
}

// CloneInto makes dst a deep copy of the instance, reusing dst's
// buffers where they are large enough — how a solver workspace
// refreshes its private copy without allocating once warm. dst must
// share no memory with the instance; cloning into a zero Instance is
// exactly Clone.
func (in *Instance) CloneInto(dst *Instance) {
	dst.Streams = buf.Grow(dst.Streams, len(in.Streams))
	dst.Users = buf.Grow(dst.Users, len(in.Users))
	dst.Budgets = append(dst.Budgets[:0], in.Budgets...)
	for s := range in.Streams {
		src, out := &in.Streams[s], &dst.Streams[s]
		out.Name = src.Name
		out.Costs = append(out.Costs[:0], src.Costs...)
	}
	for u := range in.Users {
		src, out := &in.Users[u], &dst.Users[u]
		out.Name = src.Name
		out.Utility = append(out.Utility[:0], src.Utility...)
		out.Capacities = append(out.Capacities[:0], src.Capacities...)
		out.Loads = buf.Grow(out.Loads, len(src.Loads))
		for j := range src.Loads {
			out.Loads[j] = append(out.Loads[j][:0], src.Loads[j]...)
		}
	}
}

// Validation errors returned by Validate. Use errors.Is to classify.
var (
	// ErrShape indicates mismatched slice lengths (for example a stream
	// whose cost vector does not match the number of budgets).
	ErrShape = errors.New("mmd: malformed instance shape")
	// ErrNegative indicates a negative cost, load, utility, budget, or
	// capacity.
	ErrNegative = errors.New("mmd: negative value")
	// ErrCostExceedsBudget indicates a stream whose cost exceeds a budget
	// on its own; the paper assumes c_i(S) <= B_i for all i and S.
	ErrCostExceedsBudget = errors.New("mmd: stream cost exceeds budget")
	// ErrNonFinite indicates a NaN or an infinity where a finite number is
	// required (costs, loads, and utilities must be finite; budgets and
	// capacities may be +Inf).
	ErrNonFinite = errors.New("mmd: non-finite value")
)

// Validate checks structural well-formedness: consistent dimensions,
// nonnegative finite costs/loads/utilities, nonnegative budgets and
// capacities, and the paper's standing assumption c_i(S) <= B_i.
//
// It also enforces the paper's convention that w_u(S) = 0 whenever
// k^u_j(S) > K^u_j for some j (a stream a user cannot hold must carry no
// utility for that user); use ZeroOverloadedUtilities to repair an
// instance that violates it.
func (in *Instance) Validate() error {
	m := len(in.Budgets)
	for i, b := range in.Budgets {
		if math.IsNaN(b) || b < 0 {
			return fmt.Errorf("budget %d is %v: %w", i, b, ErrNegative)
		}
	}
	for s := range in.Streams {
		st := &in.Streams[s]
		if len(st.Costs) != m {
			return fmt.Errorf("stream %d (%s) has %d costs, want %d: %w",
				s, st.Name, len(st.Costs), m, ErrShape)
		}
		for i, c := range st.Costs {
			switch {
			case math.IsNaN(c) || math.IsInf(c, 0):
				return fmt.Errorf("stream %d cost %d is %v: %w", s, i, c, ErrNonFinite)
			case c < 0:
				return fmt.Errorf("stream %d cost %d is %v: %w", s, i, c, ErrNegative)
			case c > in.Budgets[i]:
				return fmt.Errorf("stream %d cost %d is %v > budget %v: %w",
					s, i, c, in.Budgets[i], ErrCostExceedsBudget)
			}
		}
	}
	for u := range in.Users {
		if err := in.validateUser(u); err != nil {
			return err
		}
	}
	return nil
}

func (in *Instance) validateUser(u int) error {
	usr := &in.Users[u]
	nS := len(in.Streams)
	if len(usr.Utility) != nS {
		return fmt.Errorf("user %d (%s) has %d utilities, want %d: %w",
			u, usr.Name, len(usr.Utility), nS, ErrShape)
	}
	if len(usr.Loads) != len(usr.Capacities) {
		return fmt.Errorf("user %d has %d load rows but %d capacities: %w",
			u, len(usr.Loads), len(usr.Capacities), ErrShape)
	}
	for s, w := range usr.Utility {
		switch {
		case math.IsNaN(w) || math.IsInf(w, 0):
			return fmt.Errorf("user %d utility for stream %d is %v: %w", u, s, w, ErrNonFinite)
		case w < 0:
			return fmt.Errorf("user %d utility for stream %d is %v: %w", u, s, w, ErrNegative)
		}
	}
	for j := range usr.Loads {
		if len(usr.Loads[j]) != nS {
			return fmt.Errorf("user %d load row %d has %d entries, want %d: %w",
				u, j, len(usr.Loads[j]), nS, ErrShape)
		}
		cap := usr.Capacities[j]
		if math.IsNaN(cap) || cap < 0 {
			return fmt.Errorf("user %d capacity %d is %v: %w", u, j, cap, ErrNegative)
		}
		for s, k := range usr.Loads[j] {
			switch {
			case math.IsNaN(k) || math.IsInf(k, 0):
				return fmt.Errorf("user %d load[%d][%d] is %v: %w", u, j, s, k, ErrNonFinite)
			case k < 0:
				return fmt.Errorf("user %d load[%d][%d] is %v: %w", u, j, s, k, ErrNegative)
			case k > cap && usr.Utility[s] > 0:
				return fmt.Errorf(
					"user %d stream %d: load %v exceeds capacity %v but utility %v > 0 (run ZeroOverloadedUtilities): %w",
					u, s, k, cap, usr.Utility[s], ErrShape)
			}
		}
	}
	return nil
}

// ZeroOverloadedUtilities enforces, in place, the paper's assumption that
// w_u(S) = 0 whenever some load of S exceeds the corresponding capacity
// of u. It returns the number of utilities zeroed.
func (in *Instance) ZeroOverloadedUtilities() int {
	zeroed := 0
	for u := range in.Users {
		usr := &in.Users[u]
		for s := range usr.Utility {
			if usr.Utility[s] == 0 {
				continue
			}
			for j := range usr.Loads {
				if usr.Loads[j][s] > usr.Capacities[j] {
					usr.Utility[s] = 0
					zeroed++
					break
				}
			}
		}
	}
	return zeroed
}

// AddUtilityCapMeasure appends to every user a capacity measure whose
// load function is the user's utility function and whose cap is the given
// per-user bound W_u. This is how the paper's "bounded utility per
// client" constraint is expressed as a capacity measure; the resulting
// measure has unit skew by construction.
//
// caps must have one entry per user; math.Inf(1) leaves a user unbounded.
func (in *Instance) AddUtilityCapMeasure(caps []float64) error {
	if len(caps) != len(in.Users) {
		return fmt.Errorf("got %d caps for %d users: %w", len(caps), len(in.Users), ErrShape)
	}
	for u := range in.Users {
		usr := &in.Users[u]
		usr.Loads = append(usr.Loads, append([]float64(nil), usr.Utility...))
		usr.Capacities = append(usr.Capacities, caps[u])
	}
	return nil
}

// InterestedUsers inverts the demand graph: out[s] lists the users with
// positive utility for stream s in increasing index order — the
// delivery candidate list an arrival-driven policy walks instead of
// scanning all users per event.
func (in *Instance) InterestedUsers() [][]int { return in.InterestedUsersInto(nil) }

// InterestedUsersInto is InterestedUsers written into dst, whose rows
// are reused (grown as needed) and returned.
func (in *Instance) InterestedUsersInto(dst [][]int) [][]int {
	dst = buf.Rows(dst, len(in.Streams))
	for u := range in.Users {
		for s, w := range in.Users[u].Utility {
			if w > 0 {
				dst[s] = append(dst[s], u)
			}
		}
	}
	return dst
}

// SupportSize returns the number of (user, stream) pairs with positive
// utility — the edge count of the bipartite demand graph.
func (in *Instance) SupportSize() int {
	edges := 0
	for u := range in.Users {
		for _, w := range in.Users[u].Utility {
			if w > 0 {
				edges++
			}
		}
	}
	return edges
}

// IsSMD reports whether the instance is a Single-Budget Multi-Client
// Distribution (SMD) instance: one server budget and at most one capacity
// constraint per user.
func (in *Instance) IsSMD() bool {
	if len(in.Budgets) != 1 {
		return false
	}
	for u := range in.Users {
		if len(in.Users[u].Capacities) > 1 {
			return false
		}
	}
	return true
}
