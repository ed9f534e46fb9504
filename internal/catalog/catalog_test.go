package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func twoTenantRegistry(t *testing.T, model CostModel) *Registry {
	t.Helper()
	r, err := NewRegistry([]Binding{
		{ID: "espn", Local: map[int]int{0: 3, 1: 7}},
		{ID: "cnn", Local: map[int]int{0: 1}},
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry([]Binding{{ID: ""}}, nil); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := NewRegistry([]Binding{
		{ID: "x", Local: map[int]int{0: 0}},
		{ID: "x", Local: map[int]int{1: 0}},
	}, nil); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := NewRegistry([]Binding{{ID: "x", Local: map[int]int{-1: 0}}}, nil); err == nil {
		t.Fatal("negative tenant accepted")
	}
	if _, err := NewRegistry([]Binding{{ID: "x", Local: map[int]int{0: -2}}}, nil); err == nil {
		t.Fatal("negative stream accepted")
	}
}

func TestRegistryLookupErrors(t *testing.T) {
	r := twoTenantRegistry(t, nil)
	if _, err := r.Acquire("nope", 0); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown id: %v", err)
	}
	if _, err := r.Acquire("cnn", 1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("unbound tenant: %v", err)
	}
	if s, err := r.Lookup("espn", 1); err != nil || s != 7 {
		t.Fatalf("Lookup = %d, %v; want 7, nil", s, err)
	}
}

// TestSharedOriginLifecycle walks one full occupancy cycle under the
// SharedOrigin model: first admitter full price, second the fraction,
// departures refund in order, last departure evicts exactly once.
func TestSharedOriginLifecycle(t *testing.T) {
	r := twoTenantRegistry(t, SharedOrigin{ReplicationFraction: 0.25})

	tk0, err := r.Acquire("espn", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tk0.Scale != 1 || tk0.Refs != 0 || tk0.Local != 3 || len(tk0.SharedWith) != 0 {
		t.Fatalf("first ticket = %+v", tk0)
	}
	if !tk0.OriginPayer {
		t.Fatalf("first ticket not origin payer: %+v", tk0)
	}
	if refs := r.Commit("espn", 0, 10, 10, tk0.OriginPayer); refs != 1 {
		t.Fatalf("refs after first commit = %d, want 1", refs)
	}

	tk1, err := r.Acquire("espn", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tk1.Scale != 0.25 || tk1.Refs != 1 || tk1.Local != 7 {
		t.Fatalf("second ticket = %+v", tk1)
	}
	if len(tk1.SharedWith) != 1 || tk1.SharedWith[0] != 0 {
		t.Fatalf("SharedWith = %v, want [0]", tk1.SharedWith)
	}
	if tk1.OriginPayer {
		t.Fatalf("discounted ticket marked origin payer: %+v", tk1)
	}
	if refs := r.Commit("espn", 1, 10, 2.5, tk1.OriginPayer); refs != 2 {
		t.Fatalf("refs after second commit = %d, want 2", refs)
	}

	snap := r.Snapshot()
	if snap.ActiveShared != 1 || snap.Admissions != 2 || snap.OriginSavings != 7.5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if e := snap.Entries[1]; e.ID != "espn" || e.Refs != 2 || e.Savings != 7.5 {
		t.Fatalf("espn entry = %+v (entries sorted by ID: cnn, espn)", e)
	}

	// The full payer departs first; the survivor keeps its discount
	// (charge fixed at admission time) and the origin stays up.
	if refs, evicted := r.Release("espn", 0, true, false); refs != 1 || evicted {
		t.Fatalf("first release = %d refs, evicted %v", refs, evicted)
	}
	// Re-offer by the remaining holder is flagged at full price, and
	// (like every acquisition) takes a provisional reference that must
	// be balanced — here by the rejection release.
	again, err := r.Acquire("espn", 1)
	if err != nil || !again.Already || again.Scale != 1 {
		t.Fatalf("re-acquire by holder = %+v, %v", again, err)
	}
	if _, evicted := r.Release("espn", 1, false, again.OriginPayer); evicted {
		t.Fatal("balancing a holder re-acquire must not evict (holder remains)")
	}
	// Last departure evicts, exactly once.
	if refs, evicted := r.Release("espn", 1, true, false); refs != 0 || !evicted {
		t.Fatalf("last release = %d refs, evicted %v", refs, evicted)
	}
	if _, evicted := r.Release("espn", 1, true, false); evicted {
		t.Fatal("eviction double-fired on a stray release")
	}
	snap = r.Snapshot()
	if e := snap.Entries[1]; e.Refs != 0 || e.Evictions != 1 {
		t.Fatalf("after drain: %+v", e)
	}
	// A fresh cycle starts at full price again.
	tk, err := r.Acquire("espn", 1)
	if err != nil || tk.Scale != 1 || tk.Refs != 0 {
		t.Fatalf("post-eviction ticket = %+v, %v", tk, err)
	}
}

// TestRejectedAdmissionReleasesPending: an Acquire balanced by a
// Release(held=false) leaves no trace, and a pending acquisition holds
// the origin open so a concurrent last-departure cannot evict an
// admission in flight out from under it.
func TestRejectedAdmissionReleasesPending(t *testing.T) {
	r := twoTenantRegistry(t, SharedOrigin{})

	tk0, err := r.Acquire("espn", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Commit("espn", 0, 10, 10, tk0.OriginPayer)
	// Tenant 1's admission is in flight while tenant 0 departs: no
	// eviction yet (pending holds the origin open).
	tk1, err := r.Acquire("espn", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, evicted := r.Release("espn", 0, true, false); evicted {
		t.Fatal("evicted with an admission in flight")
	}
	// The in-flight admission is rejected: now the origin drains.
	if _, evicted := r.Release("espn", 1, false, tk1.OriginPayer); !evicted {
		t.Fatal("expected eviction once pending drained")
	}
}

func TestIsolatedScaleAlwaysOne(t *testing.T) {
	m := Isolated{}
	for refs := 0; refs < 5; refs++ {
		if m.ScaleFor(refs) != 1 {
			t.Fatalf("Isolated.ScaleFor(%d) != 1", refs)
		}
	}
	s := SharedOrigin{} // zero value: default fraction
	if s.ScaleFor(0) != 1 || s.ScaleFor(1) != DefaultReplicationFraction {
		t.Fatalf("SharedOrigin zero value: %v, %v", s.ScaleFor(0), s.ScaleFor(1))
	}
}

func TestRegistryCloseIdempotent(t *testing.T) {
	r, err := NewRegistry([]Binding{{ID: "x", Local: map[int]int{0: 0}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()
	if _, err := r.Acquire("x", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("snapshot after close: %+v", snap)
	}
}

// TestRegistryConcurrentCycles hammers the registry with full
// acquire/commit/release cycles from many goroutines (run under -race):
// refcounts must end at zero, every occupancy cycle must fire exactly
// one eviction, and the accounting must balance.
func TestRegistryConcurrentCycles(t *testing.T) {
	const tenants, rounds = 8, 50
	local := make(map[int]int, tenants)
	for ti := 0; ti < tenants; ti++ {
		local[ti] = 0
	}
	r, err := NewRegistry([]Binding{{ID: "hot", Local: local}}, SharedOrigin{ReplicationFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	admissions, evictions := 0, 0
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				tk, err := r.Acquire("hot", tenant)
				if err != nil {
					t.Error(err)
					return
				}
				if tk.Already {
					t.Errorf("tenant %d: impossible Already (it holds nothing)", tenant)
					return
				}
				if round%3 == 0 {
					// Simulate a rejected admission. Its release can be
					// the one that drains an occupied origin (the last
					// confirmed holder may already have departed), so it
					// counts toward the eviction tally too.
					if _, evicted := r.Release("hot", tenant, false, tk.OriginPayer); evicted {
						mu.Lock()
						evictions++
						mu.Unlock()
					}
					continue
				}
				r.Commit("hot", tenant, 4, tk.Scale*4, tk.OriginPayer)
				mu.Lock()
				admissions++
				mu.Unlock()
				_, evicted := r.Release("hot", tenant, true, false)
				if evicted {
					mu.Lock()
					evictions++
					mu.Unlock()
				}
			}
		}(ti)
	}
	wg.Wait()

	snap := r.Snapshot()
	e := snap.Entries[0]
	if e.Refs != 0 || len(e.Holders) != 0 {
		t.Fatalf("refcount leaked: %+v", e)
	}
	if e.Admissions != admissions {
		t.Fatalf("admissions = %d, callers saw %d", e.Admissions, admissions)
	}
	if e.Evictions != evictions {
		t.Fatalf("evictions = %d, callers saw %d (double- or under-fire)", e.Evictions, evictions)
	}
	if e.Evictions < 1 || e.Evictions > e.Admissions {
		t.Fatalf("evictions %d outside [1, %d]", e.Evictions, e.Admissions)
	}
	if e.Savings < 0 || e.ChargedCost > e.FullCost {
		t.Fatalf("accounting: %+v", e)
	}
	// After the storm the entry must admit a fresh cycle at full price.
	tk, err := r.Acquire("hot", 0)
	if err != nil || tk.Scale != 1 {
		t.Fatalf("post-storm ticket = %+v, %v", tk, err)
	}
	r.Release("hot", 0, false, tk.OriginPayer)
}

// TestRegistryConcurrentClose closes the registry while goroutines
// run Acquire, SettleBatch and Snapshot (run under -race): every call
// either completes against a consistent state or answers ErrClosed or
// a zero value, a goroutine that has seen the registry closed never
// sees it open again, and nothing deadlocks.
func TestRegistryConcurrentClose(t *testing.T) {
	const tenants = 8
	local := make(map[int]int, tenants)
	for ti := 0; ti < tenants; ti++ {
		local[ti] = 0
	}
	r, err := NewRegistry([]Binding{{ID: "hot", Local: local}}, SharedOrigin{ReplicationFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	started := make(chan struct{}, tenants)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			closed := false
			// seen checks one call's answer: a closed answer latches, and
			// an open one after it is a resurrection.
			seen := func(what string, isClosed bool) bool {
				if closed && !isClosed {
					t.Errorf("tenant %d: %s answered after the registry was seen closed", tenant, what)
				}
				closed = closed || isClosed
				return !isClosed
			}
			var once sync.Once
			warm := func() { started <- struct{}{} }
			defer once.Do(warm)
			settle := make([]Settlement, 1)
			res := make([]SettleResult, 1)
			for round := 0; ; round++ {
				if round == 20 {
					once.Do(warm)
				}
				tk, err := r.Acquire("hot", tenant)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("tenant %d: acquire: %v", tenant, err)
					return
				}
				if seen("Acquire", err != nil) {
					settle[0] = Settlement{Op: SettleCommit, ID: "hot", Tenant: tenant, Full: 2, Charged: 2 * tk.Scale, Origin: tk.OriginPayer}
					err := r.SettleBatch(settle, res)
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("tenant %d: commit: %v", tenant, err)
						return
					}
					if seen("SettleBatch", err != nil) && (res[0].Refs < 1 || res[0].Refs > tenants) {
						t.Errorf("tenant %d: committed refs %d outside [1,%d]", tenant, res[0].Refs, tenants)
					}
				}
				snap := r.Snapshot()
				if seen("Snapshot", snap == nil) {
					e := snap.Entries[0]
					if e.Refs != len(e.Holders) || !sort.IntsAreSorted(e.Holders) || e.Evictions > e.Admissions {
						t.Errorf("tenant %d: inconsistent snapshot %+v", tenant, e)
					}
				}
				settle[0] = Settlement{Op: SettleRelease, ID: "hot", Tenant: tenant}
				err = r.SettleBatch(settle, res)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("tenant %d: release: %v", tenant, err)
					return
				}
				if !seen("SettleBatch", err != nil) && round >= 20 {
					return
				}
			}
		}(ti)
	}
	for ti := 0; ti < tenants; ti++ {
		<-started
	}
	r.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("callers still running 30s after Close: deadlock")
	}
	if _, err := r.Acquire("hot", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
	if refs := r.Commit("hot", 0, 1, 1, false); refs != 0 {
		t.Fatalf("commit after close returned refs %d", refs)
	}
	if r.Snapshot() != nil || r.Refs("hot") != 0 {
		t.Fatal("state readable after close")
	}
	if _, err := r.DanglingPending(); !errors.Is(err, ErrClosed) {
		t.Fatalf("dangling after close: %v", err)
	}
}

func TestSnapshotRenderDeterministic(t *testing.T) {
	r := twoTenantRegistry(t, SharedOrigin{ReplicationFraction: 0.25})
	tk, err := r.Acquire("espn", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Commit("espn", 0, 10, 10, tk.OriginPayer)
	a, b := r.Snapshot().Render(), r.Snapshot().Render()
	if a != b {
		t.Fatalf("render not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"catalog: 2 streams", "shared-origin", "espn", "cnn"} {
		if !strings.Contains(a, want) {
			t.Fatalf("render missing %q:\n%s", want, a)
		}
	}
}

func ExampleSharedOrigin() {
	m := SharedOrigin{ReplicationFraction: 0.2}
	fmt.Println(m.ScaleFor(0), m.ScaleFor(1), m.ScaleFor(7))
	// Output: 1 0.2 0.2
}

// badModel violates the ScaleFor contract; the registry must clamp it
// to full price rather than hand the serving path an unusable scale.
type badModel struct{ scale float64 }

func (badModel) Name() string           { return "bad" }
func (m badModel) ScaleFor(int) float64 { return m.scale }

func TestScaleForContractClamped(t *testing.T) {
	for _, scale := range []float64{0, -1, 2.5} {
		r, err := NewRegistry([]Binding{{ID: "x", Local: map[int]int{0: 0}}}, badModel{scale})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := r.Acquire("x", 0)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Scale != 1 {
			t.Fatalf("ScaleFor %v not clamped: ticket scale %v", scale, tk.Scale)
		}
		r.Release("x", 0, false, tk.OriginPayer)
		r.Close()
	}
}

// TestStrayHeldReleaseIsNoOp pins the over-release contract the
// cluster's install-reconcile path relies on: a confirmed Release for a
// tenant that holds nothing — even one with an acquisition in flight —
// must leave no trace and must not poison that acquisition's later
// Commit.
func TestStrayHeldReleaseIsNoOp(t *testing.T) {
	r := twoTenantRegistry(t, SharedOrigin{ReplicationFraction: 0.25})

	tk, err := r.Acquire("espn", 0)
	if err != nil || tk.Scale != 1 {
		t.Fatalf("acquire = %+v, %v", tk, err)
	}
	// Stray confirmed release while the acquisition is in flight: no
	// refs, no eviction (pending gates it), and crucially no debt.
	if refs, evicted := r.Release("espn", 0, true, false); refs != 0 || evicted {
		t.Fatalf("stray release = %d refs, evicted %v", refs, evicted)
	}
	// The in-flight admission commits normally.
	if refs := r.Commit("espn", 0, 10, 10, tk.OriginPayer); refs != 1 {
		t.Fatalf("commit after stray release = %d refs, want 1", refs)
	}
	if refs, evicted := r.Release("espn", 0, true, false); refs != 0 || !evicted {
		t.Fatalf("real release = %d refs, evicted %v", refs, evicted)
	}
	snap := r.Snapshot()
	if e := snap.Entries[1]; e.Refs != 0 || e.Admissions != 1 || e.Evictions != 1 {
		t.Fatalf("after cycle: %+v", e)
	}
}

// TestConcurrentFirstAdmissionSingleOriginPayer pins the carried
// pricing bugfix: when many tenants race to admit a cold stream, the
// registry must quote exactly one of them the full origin cost — the
// in-flight full-priced acquisition counts toward the sharing degree
// of everyone quoted after it, even before the payer commits.
func TestConcurrentFirstAdmissionSingleOriginPayer(t *testing.T) {
	const tenants = 16
	local := make(map[int]int, tenants)
	for ti := 0; ti < tenants; ti++ {
		local[ti] = 0
	}
	r, err := NewRegistry([]Binding{{ID: "cold", Local: local}}, SharedOrigin{ReplicationFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// All acquisitions race before any settlement; every one is priced
	// against a registry that has seen only pending state.
	tickets := make([]Ticket, tenants)
	var start, wg sync.WaitGroup
	start.Add(1)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			start.Wait()
			tk, err := r.Acquire("cold", tenant)
			if err != nil {
				t.Error(err)
				return
			}
			tickets[tenant] = tk
		}(ti)
	}
	start.Done()
	wg.Wait()

	payers := 0
	for ti, tk := range tickets {
		if tk.OriginPayer {
			payers++
			if tk.Scale != 1 {
				t.Fatalf("tenant %d: origin payer quoted scale %v, want 1", ti, tk.Scale)
			}
		} else if tk.Scale != 0.25 {
			t.Fatalf("tenant %d: non-payer quoted scale %v, want 0.25", ti, tk.Scale)
		}
	}
	if payers != 1 {
		t.Fatalf("%d origin payers, want exactly 1", payers)
	}

	// Everyone commits at the quoted price: total charged is one full
	// origin cost plus the replication fraction for each follower.
	const full = 8.0
	for ti, tk := range tickets {
		r.Commit("cold", ti, full, tk.Scale*full, tk.OriginPayer)
	}
	snap := r.Snapshot()
	e := snap.Entries[0]
	want := full + float64(tenants-1)*0.25*full
	if e.ChargedCost != want {
		t.Fatalf("charged = %v, want %v (exactly one full origin cost)", e.ChargedCost, want)
	}
}

// TestOriginPayerBailRequotesFull pins the quote-honoring stance: when
// the would-be origin payer bails (rejected admission), already-issued
// discounted quotes keep their price, and the next fresh acquisition is
// quoted full price again.
func TestOriginPayerBailRequotesFull(t *testing.T) {
	local := map[int]int{0: 0, 1: 0, 2: 0}
	r, err := NewRegistry([]Binding{{ID: "cold", Local: local}}, SharedOrigin{ReplicationFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	payer, err := r.Acquire("cold", 0)
	if err != nil || !payer.OriginPayer || payer.Scale != 1 {
		t.Fatalf("payer ticket = %+v, %v", payer, err)
	}
	follower, err := r.Acquire("cold", 1)
	if err != nil || follower.OriginPayer || follower.Scale != 0.25 {
		t.Fatalf("follower ticket = %+v, %v", follower, err)
	}
	// The payer bails; the origin slot opens again.
	if _, evicted := r.Release("cold", 0, false, payer.OriginPayer); evicted {
		t.Fatal("bail of a pending acquisition evicted")
	}
	requote, err := r.Acquire("cold", 2)
	if err != nil || !requote.OriginPayer || requote.Scale != 1 {
		t.Fatalf("post-bail ticket = %+v, %v (full price must be requoted)", requote, err)
	}
	// The follower's discounted quote is honored regardless.
	if refs := r.Commit("cold", 1, 8, follower.Scale*8, follower.OriginPayer); refs != 1 {
		t.Fatalf("follower commit refs = %d, want 1", refs)
	}
	r.Commit("cold", 2, 8, requote.Scale*8, requote.OriginPayer)
	e := r.Snapshot().Entries[0]
	if want := 8 + 0.25*8.0; e.ChargedCost != want {
		t.Fatalf("charged = %v, want %v", e.ChargedCost, want)
	}
}

// TestAcquireBatch pins the pipelined batch-pricing semantics: each
// acquisition in the batch is priced as if the ones before it were
// already in flight, and the whole batch is priced under one hold of
// the lock.
func TestAcquireBatch(t *testing.T) {
	r, err := NewRegistry([]Binding{
		{ID: "a", Local: map[int]int{0: 1}},
		{ID: "b", Local: map[int]int{0: 2}},
	}, SharedOrigin{ReplicationFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Length mismatch and unknown ids fail before any state moves.
	if err := r.AcquireBatch(0, []ID{"a"}, make([]Ticket, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := r.AcquireBatch(0, []ID{"a", "nope"}, make([]Ticket, 2)); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown id in batch: %v", err)
	}
	if r.Refs("a") != 0 {
		t.Fatal("failed batch leaked a pending acquisition")
	}
	if err := r.AcquireBatch(0, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}

	// The same ID twice in one batch: the second acquisition sees the
	// first's in-flight full-priced reference and is quoted discounted.
	tks := make([]Ticket, 3)
	if err := r.AcquireBatch(0, []ID{"a", "a", "b"}, tks); err != nil {
		t.Fatal(err)
	}
	if !tks[0].OriginPayer || tks[0].Scale != 1 {
		t.Fatalf("first acquisition = %+v, want origin payer at full price", tks[0])
	}
	if tks[1].OriginPayer || tks[1].Scale != 0.5 {
		t.Fatalf("second acquisition = %+v, want discounted follower", tks[1])
	}
	if !tks[2].OriginPayer || tks[2].Local != 2 {
		t.Fatalf("third acquisition = %+v, want fresh origin payer for b", tks[2])
	}

	// Settle all three in one round trip; out slots line up with ops.
	ops := []Settlement{
		{Op: SettleCommit, ID: "a", Tenant: 0, Full: 4, Charged: 4, Origin: tks[0].OriginPayer},
		{Op: SettleReleasePending, ID: "a", Tenant: 0, Origin: tks[1].OriginPayer},
		{Op: SettleCommit, ID: "b", Tenant: 0, Full: 6, Charged: 6, Origin: tks[2].OriginPayer},
	}
	out := make([]SettleResult, len(ops))
	if err := r.SettleBatch(ops, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Refs != 1 || out[0].Evicted {
		t.Fatalf("commit a settled as %+v", out[0])
	}
	if out[1].Refs != 1 || out[1].Evicted {
		t.Fatalf("release-pending a settled as %+v (holder must survive)", out[1])
	}
	if out[2].Refs != 1 {
		t.Fatalf("commit b settled as %+v", out[2])
	}

	// SettleBatch with nil out is allowed: fire-and-forget settlement.
	if err := r.SettleBatch([]Settlement{
		{Op: SettleRelease, ID: "a", Tenant: 0},
		{Op: SettleRelease, ID: "b", Tenant: 0},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if r.Refs("a") != 0 || r.Refs("b") != 0 {
		t.Fatal("refs leaked after batch release")
	}
	snap := r.Snapshot()
	for _, e := range snap.Entries {
		if e.Evictions != 1 {
			t.Fatalf("entry %s evictions = %d, want 1", e.ID, e.Evictions)
		}
	}
}

// TestSettleAdopt pins the install-reconcile settlement: an adopt picks
// up a confirmed reference at full price without a pending acquisition.
func TestSettleAdopt(t *testing.T) {
	r := twoTenantRegistry(t, SharedOrigin{ReplicationFraction: 0.25})
	out := make([]SettleResult, 1)
	if err := r.SettleBatch([]Settlement{
		{Op: SettleAdopt, ID: "espn", Tenant: 0, Full: 10, Charged: 10},
	}, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Refs != 1 {
		t.Fatalf("adopt refs = %d, want 1", out[0].Refs)
	}
	// A follower is now priced against the adopted reference.
	tk, err := r.Acquire("espn", 1)
	if err != nil || tk.Scale != 0.25 {
		t.Fatalf("follower after adopt = %+v, %v", tk, err)
	}
	r.Release("espn", 1, false, tk.OriginPayer)
	if refs, evicted := r.Release("espn", 0, true, false); refs != 0 || !evicted {
		t.Fatalf("adopted ref release = %d, %v", refs, evicted)
	}
}
