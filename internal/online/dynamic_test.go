package online_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mmd"
	"repro/internal/online"
)

func dynamicAllocator(t *testing.T, seed int64) (*mmd.Instance, *online.Allocator) {
	t.Helper()
	in := smallInstance(seed, 20, 4, 2, 1)
	norm, err := online.Normalize(in)
	if err != nil {
		t.Fatal(err)
	}
	al, err := online.NewAllocator(norm.Instance, norm.Mu())
	if err != nil {
		t.Fatal(err)
	}
	return norm.Instance, al
}

func TestReleaseRestoresLoads(t *testing.T) {
	in, al := dynamicAllocator(t, 201)
	al.RunSequence(nil)
	valueBefore := al.Value()

	// Pick an assigned stream and release it.
	var target = -1
	for s := 0; s < in.NumStreams(); s++ {
		if al.Assignment().InRange(s) {
			target = s
			break
		}
	}
	if target < 0 {
		t.Skip("no stream assigned")
	}
	loadBefore := al.ServerLoad(0)
	if !al.Release(target) {
		t.Fatal("Release returned false for an assigned stream")
	}
	if al.Assignment().InRange(target) {
		t.Fatal("stream still in range after Release")
	}
	if al.Value() >= valueBefore {
		t.Fatalf("value did not drop: %v -> %v", valueBefore, al.Value())
	}
	if b := in.Budgets[0]; b > 0 && !math.IsInf(b, 1) && in.Streams[target].Costs[0] > 0 {
		if al.ServerLoad(0) >= loadBefore {
			t.Fatalf("server load did not drop: %v -> %v", loadBefore, al.ServerLoad(0))
		}
	}
	// Releasing again is a no-op.
	if al.Release(target) {
		t.Fatal("Release returned true for an absent stream")
	}
}

func TestReleaseThenReoffer(t *testing.T) {
	// Releasing the LAST admitted stream restores the exact state from
	// just before its admission, so re-offering it must admit the same
	// users again (determinism of the admission rule).
	in, al := dynamicAllocator(t, 202)
	last, lastUsers := -1, []int(nil)
	for s := 0; s < in.NumStreams(); s++ {
		if users := al.Offer(s); len(users) > 0 {
			last, lastUsers = s, users
		}
	}
	if last < 0 {
		t.Skip("no stream admitted")
	}
	al.Release(last)
	again := al.Offer(last)
	if len(again) != len(lastUsers) {
		t.Fatalf("re-offer admitted %v, originally %v", again, lastUsers)
	}
	for i := range again {
		if again[i] != lastUsers[i] {
			t.Fatalf("re-offer admitted %v, originally %v", again, lastUsers)
		}
	}
	if err := al.Assignment().CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUserPrunesServer(t *testing.T) {
	in, al := dynamicAllocator(t, 203)
	al.RunSequence(nil)
	// Find a user holding something.
	target := -1
	for u := 0; u < in.NumUsers(); u++ {
		if al.Assignment().UserCount(u) > 0 {
			target = u
			break
		}
	}
	if target < 0 {
		t.Skip("no user assigned")
	}
	before := al.Assignment().RangeSize()
	pruned, err := al.ReleaseUser(target)
	if err != nil {
		t.Fatal(err)
	}
	if al.Assignment().UserCount(target) != 0 {
		t.Fatal("user still holds streams after ReleaseUser")
	}
	if al.Assignment().RangeSize() != before-pruned {
		t.Fatalf("range size %d, want %d - %d", al.Assignment().RangeSize(), before, pruned)
	}
	if _, err := al.ReleaseUser(99); err == nil {
		t.Fatal("ReleaseUser accepted an out-of-range user")
	}
}

// TestChurnNeverViolates: under heavy arrival/departure churn the
// allocator keeps every budget satisfied at all times.
func TestChurnNeverViolates(t *testing.T) {
	in, al := dynamicAllocator(t, 204)
	rng := rand.New(rand.NewSource(205))
	live := make(map[int]bool)
	for step := 0; step < 500; step++ {
		s := rng.Intn(in.NumStreams())
		if live[s] && rng.Float64() < 0.5 {
			al.Release(s)
			live[s] = false
		} else {
			if len(al.Offer(s)) > 0 {
				live[s] = true
			}
		}
		if err := al.Assignment().CheckFeasible(in); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestChurnValueAccounting: value always equals the assignment's true
// utility, no matter the churn history.
func TestChurnValueAccounting(t *testing.T) {
	in, al := dynamicAllocator(t, 206)
	rng := rand.New(rand.NewSource(207))
	for step := 0; step < 300; step++ {
		s := rng.Intn(in.NumStreams())
		switch rng.Intn(3) {
		case 0:
			al.Offer(s)
		case 1:
			al.Release(s)
		case 2:
			_, _ = al.ReleaseUser(rng.Intn(in.NumUsers()))
		}
		want := al.Assignment().Utility(in)
		if math.Abs(al.Value()-want) > 1e-6 {
			t.Fatalf("step %d: Value() = %v, assignment utility = %v", step, al.Value(), want)
		}
	}
}

// TestInstallSkipsHeldPairs installs an assignment onto an allocator
// that already holds some of its pairs: the held pairs are skipped, and
// every other pair is committed in increasing stream order with users
// in increasing order, so the value and every load equal, bit for bit,
// what adding exactly those pairs in that order gives.
func TestInstallSkipsHeldPairs(t *testing.T) {
	in, al := dynamicAllocator(t, 203)
	for s := 0; s < in.NumStreams(); s += 2 {
		al.Offer(s)
	}
	held := al.Assignment().Clone()
	if held.Pairs() == 0 {
		t.Fatal("the offers admitted nothing")
	}
	a := mmd.NewAssignment(in.NumUsers())
	for u := range in.Users {
		for s, w := range in.Users[u].Utility {
			if w > 0 && (u+s)%3 != 0 {
				a.Add(u, s)
			}
		}
	}

	finite := func(limit float64) bool { return limit > 0 && !math.IsInf(limit, 1) }
	value := al.Value()
	serverLoad := make([]float64, len(in.Budgets))
	for i := range serverLoad {
		serverLoad[i] = al.ServerLoad(i)
	}
	userLoad := make([][]float64, in.NumUsers())
	for u := range userLoad {
		for j := range in.Users[u].Capacities {
			userLoad[u] = append(userLoad[u], al.UserLoad(u, j))
		}
	}
	union := held.Clone()
	for _, s := range a.RangeView() {
		for u := range in.Users {
			if !a.Has(u, s) || held.Has(u, s) {
				continue
			}
			union.Add(u, s)
			usr := &in.Users[u]
			value += usr.Utility[s]
			for j, capJ := range usr.Capacities {
				if finite(capJ) {
					userLoad[u][j] += usr.Loads[j][s] / capJ
				}
			}
		}
		if !held.InRange(s) {
			for i, b := range in.Budgets {
				if finite(b) {
					serverLoad[i] += in.Streams[s].Costs[i] / b
				}
			}
		}
	}

	al.Install(a)
	if !al.Assignment().Equal(union) {
		t.Fatalf("installed %v, want the union %v", al.Assignment(), union)
	}
	if math.Float64bits(al.Value()) != math.Float64bits(value) {
		t.Fatalf("value %v, want %v", al.Value(), value)
	}
	for i, want := range serverLoad {
		if got := al.ServerLoad(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("server load %d is %v, want %v", i, got, want)
		}
	}
	for u := range userLoad {
		for j, want := range userLoad[u] {
			if got := al.UserLoad(u, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("user %d load %d is %v, want %v", u, j, got, want)
			}
		}
	}
}
