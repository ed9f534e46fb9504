package headend_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/mmd"
)

// TestResolveSteadyStateAllocBudget pins 200 installing re-solves of a
// churn-resolve head-end (120 channels, 40 gateways) with three
// gateways away at exactly zero allocations in all, once the tenant's
// solver workspace and both of the online policy's alternating
// allocator states are warm. The bands are solved on the caller's
// goroutine, and an install that repeats the lineup keeps every
// carried list.
func TestResolveSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	resolve := warmResolveTenant(t)
	if n := countMallocs(200, nil, resolve); n != 0 {
		t.Fatalf("200 warm installing re-solves allocate %d times, want 0", n)
	}
}

// TestInstallAllocationFree pins the installs of churn-resolve's cycle
// at exactly zero allocations: over 1,000 warm cycles in which a
// gateway leaves and rejoins, a stream departs and is offered again,
// and an installing re-solve follows, the re-solves allocate nothing
// in all. Each install changes lists — the gateway's and the
// re-offered stream's — and writes them into the tenant's own storage,
// which earlier cycles grew. Only the re-solves are counted; the
// lists the other steps return are the caller's and are carved.
func TestInstallAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	churn, resolve := warmChurnTenant(t)
	if n := countMallocs(1000, churn, resolve); n != 0 {
		t.Fatalf("1000 warm installs allocate %d times, want 0", n)
	}
}

// TestNewTenantAllocations pins building one online tenant — the
// guarded online policy by name, then its tenant — on a churn-resolve
// head-end (120 channels, 40 gateways) at 32 allocations or fewer, each
// of 20 builds counted on its own: the policy's normalized copy is
// carved from one array of floats and one of load-row headers, and the
// per-user rows of its allocator and its ledger from one array each.
func TestNewTenantAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	in, err := generator.CableTV{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	build := func() {
		pol, err := headend.NewPolicyByName(in, "online")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := headend.NewTenant(in, pol); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if n := countMallocs(1, nil, build); n > 32 {
			t.Fatalf("building an online tenant allocates %d times, want at most 32", n)
		}
	}
}

// countMallocs runs runs cycles of before (when not nil) and f on one
// processor, and returns how many heap allocations the calls of f made
// in all. testing.AllocsPerRun divides its total by the runs as
// integers, so an AllocsPerRun pin that reads 0 admits up to runs−1
// allocations; the exact total admits none. A GC cycle that starts
// inside a counted call allocates on its own (the process's first one
// starts the mark workers), so each call runs right after a collection,
// with the collector held off until its count is read.
func countMallocs(runs int, before, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < runs; i++ {
		if before != nil {
			before()
		}
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(gcPercent)
		total += m1.Mallocs - m0.Mallocs
	}
	return total
}

// TestFirstResolveAllocations pins the re-solves that build a
// tenant's solver workspace on a churn-resolve head-end (120 channels,
// 40 gateways, three gateways away), each counted on its own: the
// first installing re-solve at 200 allocations or fewer, the second,
// which warms the online policy's other allocator state, at 8 or
// fewer. Every per-row structure of the pipeline is laid out in one
// array per structure, so building it costs a few allocations per
// structure instead of one per row.
func TestFirstResolveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	resolve := resolveTenant(t)
	if n := countMallocs(1, nil, resolve); n > 200 {
		t.Fatalf("the first installing re-solve allocates %d times, want at most 200", n)
	}
	if n := countMallocs(1, nil, resolve); n > 8 {
		t.Fatalf("the second installing re-solve allocates %d times, want at most 8", n)
	}
}

// warmResolveTenant is resolveTenant's re-solve, run until warm.
func warmResolveTenant(tb testing.TB) func() {
	tb.Helper()
	resolve := resolveTenant(tb)
	// Reinstall swaps between two allocators, so two installs warm both.
	resolve()
	resolve()
	return resolve
}

// resolveTenant builds a churn-resolve head-end (120 channels, 40
// gateways) that carries a seeded lineup with three gateways away, and
// returns its installing re-solve, not yet run.
func resolveTenant(tb testing.TB) func() {
	tb.Helper()
	in, err := generator.CableTV{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25}.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		tb.Fatal(err)
	}
	tn, err := headend.NewTenant(in, pol)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i, s := range rng.Perm(in.NumStreams()) {
		tn.OfferStream(s)
		if i%4 == 3 {
			tn.DepartStream(s)
		}
	}
	for _, u := range []int{3, 11, 29} {
		tn.UserLeave(u)
	}
	return func() {
		out, err := tn.Resolve(core.Options{}, true)
		if err != nil {
			tb.Fatal(err)
		}
		if !out.Installed {
			tb.Fatal("re-solve did not install")
		}
	}
}

// warmChurnTenant builds a churn-resolve head-end (120 channels, 40
// gateways, the online policy) carrying the installed offline lineup,
// and returns churn-resolve's cycle in two parts, each run until warm:
// churn, in which a gateway leaves and rejoins and a stream departs and
// is offered again, and the installing re-solve that follows. The
// gateway is the first that holds a stream after an install, and the
// stream the first it holds.
func warmChurnTenant(tb testing.TB) (churn, resolve func()) {
	tb.Helper()
	in, err := generator.CableTV{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25}.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		tb.Fatal(err)
	}
	tn, err := headend.NewTenant(in, pol)
	if err != nil {
		tb.Fatal(err)
	}
	resolve = func() {
		out, err := tn.Resolve(core.Options{}, true)
		if err != nil {
			tb.Fatal(err)
		}
		if !out.Installed {
			tb.Fatal("re-solve did not install")
		}
	}
	for s := 0; s < in.NumStreams(); s++ {
		tn.OfferStream(s)
	}
	resolve()
	// A rejoin recovers no subscription, so a second install gives the
	// probed gateways theirs back.
	u, s := -1, -1
	for g := 0; g < in.NumUsers() && u < 0; g++ {
		if held := tn.UserLeave(g); len(held) > 0 {
			u, s = g, held[0]
		}
		tn.UserJoin(g)
	}
	if u < 0 {
		tb.Fatal("no gateway holds a stream after the install")
	}
	resolve()
	churn = func() {
		if len(tn.UserLeave(u)) == 0 {
			tb.Fatalf("gateway %d left holding nothing", u)
		}
		tn.UserJoin(u)
		tn.DepartStream(s)
		tn.OfferStream(s)
	}
	for i := 0; i < 8; i++ {
		churn()
		resolve()
	}
	return churn, resolve
}

// TestOfferStreamScaledAllocationFree pins an admitted catalog offer on
// a warm tenant at zero allocations: the admitted subscriber list is
// carved from the tenant's shared arrays, not allocated per offer.
func TestOfferStreamScaledAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	in, err := generator.CableTV{Channels: 20, Gateways: 6, Seed: 401, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := headend.NewTenant(in, pol)
	if err != nil {
		t.Fatal(err)
	}
	s := -1
	for c := 0; c < in.NumStreams() && s < 0; c++ {
		if tn.OfferStreamScaled(c, 0.25) != nil {
			s = c
		}
		tn.DepartStream(c)
	}
	if s < 0 {
		t.Fatal("no admissible stream")
	}
	cycle := func() {
		if tn.OfferStreamScaled(s, 0.25) == nil {
			t.Fatal("warm offer rejected")
		}
		tn.DepartStream(s)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("admitted OfferStreamScaled and its departure allocate %.2f per cycle, want 0", avg)
	}
}

// TestUserChurnAllocationFree pins a warm leave-and-join cycle at zero
// allocations under the online and threshold policies. The gateway
// shares two streams with other gateways and is not the last holder of
// either, so the leave carves both shortened subscriber lists; the
// streams then depart and are offered again, so the gateway holds them
// for the next cycle. Offers and departures allocate nothing on their
// own (TestOfferStreamScaledAllocationFree).
func TestUserChurnAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	in, err := generator.CableTV{Channels: 20, Gateways: 6, Seed: 402, EgressFraction: 0.3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"online", "threshold"} {
		t.Run(policy, func(t *testing.T) {
			tn := newTenant(t, in, policy)
			for s := 0; s < in.NumStreams(); s++ {
				tn.OfferStream(s)
			}
			u, shared := sharedStreams(tn.Assignment())
			if u < 0 {
				t.Fatal("no gateway shares two streams ahead of another holder")
			}
			// The first leave also takes u off its other streams;
			// from then on it holds the two shared ones alone.
			tn.UserLeave(u)
			cycle := func() {
				tn.UserJoin(u)
				for _, s := range shared {
					tn.DepartStream(s)
				}
				for _, s := range shared {
					if users := tn.OfferStream(s); len(users) < 2 || users[0] != u {
						t.Fatalf("stream %d re-offered to %v, want gateway %d first of two or more", s, users, u)
					}
				}
				if got := tn.UserLeave(u); !slices.Equal(got, shared) {
					t.Fatalf("gateway %d left holding %v, want %v", u, got, shared)
				}
			}
			for i := 0; i < 8; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Fatalf("warm leave, join and re-offer allocate %.2f per cycle, want 0", avg)
			}
		})
	}
}

// sharedStreams finds a gateway that is the first of two or more
// holders of at least two streams, and returns it with two of them
// (-1 when there is none).
func sharedStreams(a *mmd.Assignment) (int, []int) {
	for u := 0; u < a.NumUsers(); u++ {
		var shared []int
		for _, s := range a.UserView(u) {
			first, holders := -1, 0
			for v := 0; v < a.NumUsers(); v++ {
				if a.Has(v, s) {
					if first < 0 {
						first = v
					}
					holders++
				}
			}
			if first == u && holders >= 2 {
				shared = append(shared, s)
			}
		}
		if len(shared) >= 2 {
			return u, shared[:2]
		}
	}
	return -1, nil
}
