// Package online implements Section 5 of Patt-Shamir & Rawitz: the
// online algorithm Allocate for MMD instances whose streams are "small"
// relative to every budget and capacity.
//
// Allocate processes streams in arrival order. Each budget — the m server
// budgets and every user capacity, treated as a virtual budget — carries
// an exponential cost C_A(i) = B_i (mu^{L_A(i)} - 1), where L_A(i) is the
// normalized load. A stream is assigned to the maximal set of interested
// users whose aggregate utility covers the marginal exponential cost
// (Algorithm 2). When every stream costs at most B_i/log2(mu) in each
// measure, no budget is ever violated (Lemma 5.1) and the algorithm is
// (1 + 2*log2(mu))-competitive (Theorem 5.4), where
// mu = 2*gamma*D + 2, D is the total budget count, and gamma is the
// global skew of equation (1).
package online

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/mmd"
)

// ErrNotNormalized is returned by NewAllocator when the instance does not
// satisfy the lower bound of equation (1); run Normalize first.
var ErrNotNormalized = errors.New("online: instance does not satisfy the eq. (1) lower bound")

// Normalization holds a globally normalized instance and its skew.
type Normalization struct {
	// Instance is the rescaled copy satisfying equation (1): for every
	// stream S, nonempty user set X within its support, and measure i
	// with c_i(S) > 0,
	//   1 <= (1/D) * sum_{u in X} w_u(S) / c_i(S) <= Gamma.
	Instance *mmd.Instance
	// Gamma is the global skew: the smallest upper bound in eq. (1).
	Gamma float64
	// D is the number of budgets: finite server measures plus every
	// user's finite capacity measures (the paper's m + |U| for mc = 1,
	// generalized to m + sum_u mc_u).
	D int
}

// Mu returns the exponential base mu = 2*Gamma*D + 2 of Section 5.
func (n *Normalization) Mu() float64 { return 2*n.Gamma*float64(n.D) + 2 }

// CompetitiveBound returns the Theorem 5.4 guarantee 1 + 2*log2(mu).
func (n *Normalization) CompetitiveBound() float64 { return 1 + 2*math.Log2(n.Mu()) }

// supportUtility holds, per stream, the smallest positive utility and
// the total utility over the stream's support; ok is false when no user
// wants the stream.
type supportUtility struct {
	minW, sumW float64
	ok         bool
}

// supportUtilities computes supportUtility for every stream, summing
// each stream's support in increasing user order.
func supportUtilities(in *mmd.Instance) []supportUtility {
	out := make([]supportUtility, in.NumStreams())
	for s := range out {
		out[s].minW = math.Inf(1)
	}
	for u := range in.Users {
		for s, w := range in.Users[u].Utility {
			if w > 0 {
				su := &out[s]
				su.sumW += w
				if w < su.minW {
					su.minW = w
				}
				su.ok = true
			}
		}
	}
	return out
}

// Normalize rescales every cost measure (server budgets and user
// capacities alike) so that equation (1) holds with the smallest possible
// gamma, and returns the normalization. Scaling a cost function together
// with its budget preserves the feasible set and all assignment values.
//
// Measures on which no supported stream has positive cost are left
// untouched (they never constrain an assignment of utility-bearing
// streams). Zero budgets are also left untouched: validation guarantees
// only zero-cost streams exist on such measures.
func Normalize(in *mmd.Instance) (*Normalization, error) {
	d := 0
	for _, b := range in.Budgets {
		if !math.IsInf(b, 1) {
			d++
		}
	}
	for u := range in.Users {
		for _, k := range in.Users[u].Capacities {
			if !math.IsInf(k, 1) {
				d++
			}
		}
	}
	if d == 0 {
		return nil, ErrNotNormalized
	}
	out := in.Clone()
	// Normalization scales costs and loads, never utilities, so each
	// stream's support utilities are computed once for every measure.
	sc := scaler{support: supportUtilities(out), df: float64(d)}
	gamma := 1.0
	for i := range out.Budgets {
		ratio := math.Inf(1)
		for s := range sc.support {
			if r := sc.lower(s, out.Streams[s].Costs[i]); r < ratio {
				ratio = r
			}
		}
		if math.IsInf(ratio, 1) {
			continue // measure never constrains supported streams
		}
		g := 1.0
		for s := range sc.support {
			c := &out.Streams[s].Costs[i]
			*c *= ratio
			if r := sc.upper(s, *c); r > g {
				g = r
			}
		}
		if !math.IsInf(out.Budgets[i], 1) {
			out.Budgets[i] *= ratio
		}
		gamma = math.Max(gamma, g)
	}
	for u := range out.Users {
		usr := &out.Users[u]
		for j := range usr.Loads {
			gamma = math.Max(gamma, sc.scaleRow(usr.Loads[j], &usr.Capacities[j]))
		}
	}
	return &Normalization{Instance: out, Gamma: gamma, D: d}, nil
}

// scaler holds what scaling one measure reads: every stream's support
// utilities and the budget count D.
type scaler struct {
	support []supportUtility
	df      float64
}

// lower returns minW/(D*c) for a supported stream of positive cost c,
// and +Inf for a stream that does not constrain the measure. The
// smallest lower over a measure's streams is its scale factor.
func (sc *scaler) lower(s int, c float64) float64 {
	if c <= 0 || !sc.support[s].ok {
		return math.Inf(1)
	}
	return sc.support[s].minW / (sc.df * c)
}

// upper returns sumW/(D*c) for a supported stream of positive scaled
// cost c, and 0 for one that does not constrain the measure. The
// largest upper over a measure's streams, and 1, is its skew.
func (sc *scaler) upper(s int, c float64) float64 {
	if c <= 0 || !sc.support[s].ok {
		return 0
	}
	return sc.support[s].sumW / (sc.df * c)
}

// scaleRow normalizes one cost row (row[s] for each stream) and its
// budget in place, returning the measure's contribution to gamma.
func (sc *scaler) scaleRow(row []float64, budget *float64) float64 {
	row = row[:len(sc.support)]
	ratio := math.Inf(1)
	for s, c := range row {
		if r := sc.lower(s, c); r < ratio {
			ratio = r
		}
	}
	if math.IsInf(ratio, 1) {
		return 1 // measure never constrains supported streams
	}
	g := 1.0
	for s := range row {
		row[s] *= ratio
		if r := sc.upper(s, row[s]); r > g {
			g = r
		}
	}
	if !math.IsInf(*budget, 1) {
		*budget *= ratio
	}
	return g
}

// SmallStreamError reports a stream too large for the Lemma 5.1
// feasibility guarantee.
type SmallStreamError struct {
	// Stream is the offending stream index.
	Stream int
	// Server reports whether a server budget (true) or a user capacity
	// (false) is exceeded.
	Server bool
	// User is the offending user (when Server is false).
	User int
	// Measure is the measure index.
	Measure int
	// Cost and Limit are the stream's cost and the allowed maximum
	// B_i/log2(mu).
	Cost, Limit float64
}

// Error implements the error interface.
func (e *SmallStreamError) Error() string {
	if e.Server {
		return fmt.Sprintf("online: stream %d cost %v on server measure %d exceeds B/log2(mu) = %v",
			e.Stream, e.Cost, e.Measure, e.Limit)
	}
	return fmt.Sprintf("online: stream %d load %v on user %d measure %d exceeds K/log2(mu) = %v",
		e.Stream, e.Cost, e.User, e.Measure, e.Limit)
}

// CheckSmallStreams verifies the small-streams hypothesis of Theorem 5.4
// on a (normalized) instance: c_i(S) <= B_i/log2(mu) for every server
// measure and k^u_j(S) <= K^u_j/log2(mu) for every user measure. It
// returns nil when the hypothesis holds.
func CheckSmallStreams(in *mmd.Instance, mu float64) error {
	logMu := math.Log2(mu)
	for s := range in.Streams {
		for i, c := range in.Streams[s].Costs {
			if limit := in.Budgets[i] / logMu; c > limit+1e-12 {
				return &SmallStreamError{Stream: s, Server: true, Measure: i, Cost: c, Limit: limit}
			}
		}
	}
	for u := range in.Users {
		usr := &in.Users[u]
		for j := range usr.Loads {
			limit := usr.Capacities[j] / logMu
			for s, k := range usr.Loads[j] {
				if usr.Utility[s] > 0 && k > limit+1e-12 {
					return &SmallStreamError{Stream: s, Measure: j, User: u, Cost: k, Limit: limit}
				}
			}
		}
	}
	return nil
}

// Allocator runs Algorithm 2 over a normalized instance.
//
// Allocator is not safe for concurrent use.
type Allocator struct {
	in *mmd.Instance
	mu float64

	serverLoad []float64   // L(i) for server budgets
	userLoad   [][]float64 // L(u,j) for user capacities

	assn  *mmd.Assignment
	value float64

	// cands and users are Offer's scratch buffers, reused across calls
	// so the serving hot path considers (and usually rejects) a stream
	// without allocating. users doubles as the returned slice — see the
	// ownership note on Offer.
	cands []offerCand
	users []int
	// byStream and offsets are Install's scratch: the installed
	// assignment inverted into per-stream user lists, laid out one after
	// another in byStream.
	byStream, offsets []int
}

// offerCand is one candidate row of Algorithm 2's maximal-subset
// selection: a user, its utility for the offered stream, and its
// marginal exponential cost.
type offerCand struct {
	u        int
	w        float64
	marginal float64
}

// NewAllocator builds an allocator for a normalized instance with the
// given exponential base mu (use Normalization.Mu()).
func NewAllocator(in *mmd.Instance, mu float64) (*Allocator, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	if mu <= 1 {
		return nil, fmt.Errorf("online: mu must exceed 1; got %v", mu)
	}
	al := &Allocator{
		in:         in,
		mu:         mu,
		serverLoad: make([]float64, in.M()),
		userLoad:   in.CapacityRows(),
		assn:       mmd.NewAssignment(in.NumUsers()),
	}
	return al, nil
}

// Reset returns the allocator to the state NewAllocator built it in —
// no load, no assignment, no value — keeping its buffers. The
// make-before-break reinstall resets a spare allocator this way instead
// of building a new one.
func (al *Allocator) Reset() {
	clear(al.serverLoad)
	for u := range al.userLoad {
		clear(al.userLoad[u])
	}
	al.assn.Reset(al.in.NumUsers())
	al.value = 0
}

// exponentialCost returns C(i) = B * (mu^L - 1) for one budget.
func (al *Allocator) exponentialCost(budget, load float64) float64 {
	return budget * (math.Pow(al.mu, load) - 1)
}

// serverMarginal returns sum_i (c_i(S)/B_i) * C(i) over finite server
// budgets with positive budget.
func (al *Allocator) serverMarginal(s int) float64 {
	total := 0.0
	for i, b := range al.in.Budgets {
		c := al.in.Streams[s].Costs[i]
		if c <= 0 || b <= 0 || math.IsInf(b, 1) {
			continue
		}
		total += c / b * al.exponentialCost(b, al.serverLoad[i])
	}
	return total
}

// userMarginal returns sum_j (k^u_j(S)/K^u_j) * C(u,j) over user u's
// finite positive capacities.
func (al *Allocator) userMarginal(u, s int) float64 {
	usr := &al.in.Users[u]
	total := 0.0
	for j, capJ := range usr.Capacities {
		k := usr.Loads[j][s]
		if k <= 0 || capJ <= 0 || math.IsInf(capJ, 1) {
			continue
		}
		total += k / capJ * al.exponentialCost(capJ, al.userLoad[u][j])
	}
	return total
}

// Offer considers stream s (Algorithm 2 lines 3-8) and returns the users
// it was assigned to, in increasing order, or nil if the stream was
// rejected. Offering the same stream again considers only users that do
// not already hold it.
//
// The returned slice is a scratch buffer owned by the allocator: it is
// valid until the next Offer call, and callers that retain the user set
// must copy it. (Every current caller filters it into its own slice
// before storing.) Offer itself allocates nothing once the buffers are
// warm, which is what keeps the serving hot path allocation-free.
func (al *Allocator) Offer(s int) []int {
	cands := al.cands[:0]
	for u := range al.in.Users {
		w := al.in.Users[u].Utility[s]
		if w <= 0 || al.assn.Has(u, s) {
			continue
		}
		cands = append(cands, offerCand{u: u, w: w, marginal: al.userMarginal(u, s)})
	}
	al.cands = cands
	if len(cands) == 0 {
		return nil
	}
	// Remove users in decreasing order of marginal-cost-to-utility ratio
	// until the aggregate condition holds (the paper's recipe for the
	// maximal subset).
	slices.SortFunc(cands, func(a, b offerCand) int {
		ra := a.marginal * b.w
		rb := b.marginal * a.w
		switch {
		case ra < rb: // keep cheap users first
			return -1
		case ra > rb:
			return 1
		default:
			return a.u - b.u
		}
	})
	serverCost := al.serverMarginal(s)
	sumW, sumMarginal := 0.0, 0.0
	for _, c := range cands {
		sumW += c.w
		sumMarginal += c.marginal
	}
	n := len(cands)
	for n > 0 && serverCost+sumMarginal > sumW {
		n--
		sumW -= cands[n].w
		sumMarginal -= cands[n].marginal
	}
	if n == 0 {
		return nil
	}

	users := al.users[:0]
	for _, c := range cands[:n] {
		users = append(users, c.u)
	}
	sort.Ints(users)
	al.users = users
	al.commit(s, users)
	return users
}

// commit assigns stream s to the given users and updates all loads.
func (al *Allocator) commit(s int, users []int) {
	first := !al.assn.InRange(s)
	for _, u := range users {
		al.assn.Add(u, s)
		al.value += al.in.Users[u].Utility[s]
		usr := &al.in.Users[u]
		for j, capJ := range usr.Capacities {
			if capJ > 0 && !math.IsInf(capJ, 1) {
				al.userLoad[u][j] += usr.Loads[j][s] / capJ
			}
		}
	}
	if first {
		for i, b := range al.in.Budgets {
			if b > 0 && !math.IsInf(b, 1) {
				al.serverLoad[i] += al.in.Streams[s].Costs[i] / b
			}
		}
	}
}

// Assignment returns the current assignment. The caller must not mutate
// it; Clone first.
func (al *Allocator) Assignment() *mmd.Assignment { return al.assn }

// Value returns the utility accumulated so far.
func (al *Allocator) Value() float64 { return al.value }

// ServerLoad returns the normalized load L(i) of server measure i.
func (al *Allocator) ServerLoad(i int) float64 { return al.serverLoad[i] }

// UserLoad returns the normalized load of user u's capacity measure j.
func (al *Allocator) UserLoad(u, j int) float64 { return al.userLoad[u][j] }

// RunSequence offers every stream once in the given order (all streams,
// in index order, when order is nil) and returns the final assignment.
func (al *Allocator) RunSequence(order []int) *mmd.Assignment {
	if order == nil {
		order = make([]int, al.in.NumStreams())
		for s := range order {
			order[s] = s
		}
	}
	for _, s := range order {
		al.Offer(s)
	}
	return al.assn
}

// Solve is a convenience wrapper: normalize the instance, build an
// allocator with mu from the normalization, offer all streams in index
// order, and return the assignment translated back to the original
// instance (assignments are index-based, so no translation is needed
// beyond feasibility checking against the original).
func Solve(in *mmd.Instance) (*mmd.Assignment, *Normalization, error) {
	norm, err := Normalize(in)
	if err != nil {
		return nil, nil, err
	}
	al, err := NewAllocator(norm.Instance, norm.Mu())
	if err != nil {
		return nil, nil, err
	}
	a := al.RunSequence(nil)
	if err := a.CheckFeasible(in); err != nil {
		return nil, nil, fmt.Errorf("online: solve produced infeasible assignment (are streams small?): %w", err)
	}
	return a, norm, nil
}
