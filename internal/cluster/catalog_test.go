package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/generator"
	"repro/internal/headend"
)

// catalogTestFleet builds n CableTV tenants with every stream bound
// into the catalog under identity mapping ("s-NNN" → local s at every
// tenant — the fully overlapping regional-CDN shape).
func catalogTestFleet(t *testing.T, n, channels, gateways int, seed int64, egress float64,
	shards int, model catalog.CostModel) *Cluster {
	t.Helper()
	cfgs := make([]TenantConfig, n)
	for i := range cfgs {
		in, err := generator.CableTV{
			Channels: channels, Gateways: gateways,
			Seed: seed + int64(i), EgressFraction: egress,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = TenantConfig{Instance: in}
	}
	bindings := catalog.IdentityBindings(n, channels, func(s int) catalog.ID {
		return catalog.ID(fmt.Sprintf("s-%03d", s))
	})
	c, err := New(cfgs, Options{
		Shards: shards, BatchSize: 8,
		Catalog: &CatalogOptions{Streams: bindings, CostModel: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestApplyMatchesSessionMethods pins Apply against the session
// methods it backs: on twin clusters, every event kind — offer,
// depart, leave, join, resolve, catalog offer and catalog depart, and
// refused events — returns through Apply exactly the result and error
// the matching session method returns.
func TestApplyMatchesSessionMethods(t *testing.T) {
	ctx := context.Background()
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	viaApply := catalogTestFleet(t, 2, 8, 3, 910, 0.5, 2, model)
	sess := catalogTestFleet(t, 2, 8, 3, 910, 0.5, 2, model)
	steps := []struct {
		ev      Event
		session func() (any, error)
	}{
		{Event{Tenant: 0, Type: EventStreamArrival, CatalogID: "s-001"},
			func() (any, error) { return sess.OfferCatalogStream(ctx, 0, "s-001") }},
		{Event{Tenant: 1, Type: EventStreamArrival, CatalogID: "s-001"},
			func() (any, error) { return sess.OfferCatalogStream(ctx, 1, "s-001") }},
		{Event{Tenant: 0, Type: EventStreamArrival, Stream: 2},
			func() (any, error) { return sess.OfferStream(ctx, 0, 2) }},
		{Event{Tenant: 1, Type: EventStreamArrival, Stream: 3},
			func() (any, error) { return sess.OfferStream(ctx, 1, 3) }},
		{Event{Tenant: 0, Type: EventUserLeave, User: 0},
			func() (any, error) { return sess.UserLeave(ctx, 0, 0) }},
		{Event{Tenant: 0, Type: EventUserJoin, User: 0},
			func() (any, error) { return sess.UserJoin(ctx, 0, 0) }},
		{Event{Tenant: 0, Type: EventStreamDeparture, Stream: 2},
			func() (any, error) { return sess.DepartStream(ctx, 0, 2) }},
		{Event{Tenant: 1, Type: EventResolve, Install: true},
			func() (any, error) { return sess.Resolve(ctx, 1, ResolveOptions{Install: true}) }},
		{Event{Tenant: 0, Type: EventStreamDeparture, CatalogID: "s-001"},
			func() (any, error) { return sess.DepartCatalogStream(ctx, 0, "s-001") }},
		{Event{Tenant: 1, Type: EventStreamDeparture, CatalogID: "s-001"},
			func() (any, error) { return sess.DepartCatalogStream(ctx, 1, "s-001") }},
		{Event{Tenant: 9, Type: EventStreamArrival, Stream: 1},
			func() (any, error) { return sess.OfferStream(ctx, 9, 1) }},
		{Event{Tenant: 0, Type: EventStreamArrival, CatalogID: "nope"},
			func() (any, error) { return sess.OfferCatalogStream(ctx, 0, "nope") }},
	}
	for i, st := range steps {
		res, err := viaApply.Apply(ctx, st.ev)
		var got any
		switch {
		case st.ev.CatalogID != "":
			got = res.Catalog
		case st.ev.Type == EventStreamArrival:
			got = res.Offer
		case st.ev.Type == EventStreamDeparture:
			got = res.Depart
		case st.ev.Type == EventResolve:
			got = res.Resolve
		default:
			got = res.Churn
		}
		want, werr := st.session()
		if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("step %d %+v: Apply = (%+v, %v), session method = (%+v, %v)", i, st.ev, got, err, want, werr)
		}
		if err != res.Err {
			t.Fatalf("step %d: Apply's error %v is not its result's %v", i, err, res.Err)
		}
	}
	fa, err := viaApply.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fa.RenderTenants() != fs.RenderTenants() || fa.Catalog.Render() != fs.Catalog.Render() {
		t.Fatalf("renders differ:\n%s%s\nvs\n%s%s", fa.RenderTenants(), fa.Catalog.Render(), fs.RenderTenants(), fs.Catalog.Render())
	}
}

// catalogSchedule is a deterministic interleaved offer/depart schedule:
// each step names a tenant, a stream, and whether to depart instead of
// offer. It is a pure function of the seed.
type catalogStep struct {
	tenant, stream int
	depart         bool
}

func catalogScheduleFor(tenants, channels int, seed int64) []catalogStep {
	rng := rand.New(rand.NewSource(seed))
	var steps []catalogStep
	var carried [][]int
	carried = make([][]int, tenants)
	for round := 0; round < 2; round++ {
		for ti := 0; ti < tenants; ti++ {
			for k, s := range rng.Perm(channels) {
				steps = append(steps, catalogStep{tenant: ti, stream: s})
				carried[ti] = append(carried[ti], s)
				if k%3 == 2 {
					d := carried[ti][0]
					carried[ti] = carried[ti][1:]
					steps = append(steps, catalogStep{tenant: ti, stream: d, depart: true})
				}
			}
		}
	}
	return steps
}

// TestCatalogIsolatedBitIdenticalToPlainSessions is the tentpole's
// differential acceptance check: under the Isolated cost model (the
// default), driving the fleet through the catalog surface
// (OfferCatalogStream/DepartCatalogStream by fleet identity) must
// produce per-tenant snapshots bit-identical to the PR 3 serving path
// (OfferStream/DepartStream by local index) over the same schedule, at
// every shard count. The catalog with Isolated is pure identity plus
// reference counting — it must never change an admission decision.
func TestCatalogIsolatedBitIdenticalToPlainSessions(t *testing.T) {
	const tenants, channels, gateways = 6, 20, 6
	steps := catalogScheduleFor(tenants, channels, 770)
	ctx := context.Background()

	// Reference: plain serving API v2 on a single shard, no catalog.
	var refTable string
	var refOffers []OfferResult
	{
		cfgs := make([]TenantConfig, tenants)
		for i := range cfgs {
			in, err := generator.CableTV{
				Channels: channels, Gateways: gateways,
				Seed: 770 + int64(i), EgressFraction: 0.25,
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
		}
		c, err := New(cfgs, Options{Shards: 1, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, st := range steps {
			if st.depart {
				if _, err := c.DepartStream(ctx, st.tenant, st.stream); err != nil {
					t.Fatal(err)
				}
				continue
			}
			res, err := c.OfferStream(ctx, st.tenant, st.stream)
			if err != nil {
				t.Fatal(err)
			}
			refOffers = append(refOffers, res)
		}
		fs, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		refTable = fs.RenderTenants()
		if fs.Catalog != nil {
			t.Fatal("plain cluster grew a catalog section")
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		c := catalogTestFleet(t, tenants, channels, gateways, 770, 0.25, shards, catalog.Isolated{})
		var offers []CatalogResult
		for _, st := range steps {
			id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
			if st.depart {
				if _, err := c.DepartCatalogStream(ctx, st.tenant, id); err != nil {
					t.Fatal(err)
				}
				continue
			}
			res, err := c.OfferCatalogStream(ctx, st.tenant, id)
			if err != nil {
				t.Fatal(err)
			}
			offers = append(offers, res)
		}
		fs, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := fs.RenderTenants(); got != refTable {
			t.Fatalf("shards=%d: catalog(Isolated) tenant table differs from plain sessions:\n--- catalog\n%s\n--- plain\n%s",
				shards, got, refTable)
		}
		if len(offers) != len(refOffers) {
			t.Fatalf("shards=%d: %d offers vs %d", shards, len(offers), len(refOffers))
		}
		for i, res := range offers {
			want := refOffers[i]
			if res.Admitted != want.Accepted || res.Utility != want.Utility ||
				len(res.Subscribers) != len(want.Subscribers) {
				t.Fatalf("shards=%d offer %d: catalog %+v vs plain %+v", shards, i, res, want)
			}
			if res.CostScale != 1 {
				t.Fatalf("shards=%d offer %d: Isolated charged scale %v", shards, i, res.CostScale)
			}
			if res.Admitted && res.CostCharged != res.FullCost {
				t.Fatalf("shards=%d offer %d: Isolated discounted: %+v", shards, i, res)
			}
		}
		// Fleet-wide accounting under Isolated: zero savings, and the
		// registry state itself is shard-count invariant.
		if fs.Catalog == nil {
			t.Fatalf("shards=%d: no catalog section", shards)
		}
		if fs.Catalog.OriginSavings != 0 {
			t.Fatalf("shards=%d: Isolated saved %v", shards, fs.Catalog.OriginSavings)
		}
	}
}

// TestCatalogSharedOriginLifecycle drives the SharedOrigin protocol end
// to end through the cluster session surface: discount pricing, shared
// references, fixed-at-admission charges, eviction on last departure,
// and the snapshot accounting.
func TestCatalogSharedOriginLifecycle(t *testing.T) {
	ctx := context.Background()
	c := catalogTestFleet(t, 3, 10, 5, 40, 0.9, 2, catalog.SharedOrigin{ReplicationFraction: 0.25})
	id := catalog.ID("s-004")

	first, err := c.OfferCatalogStream(ctx, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Admitted {
		t.Fatalf("first offer rejected: %+v", first)
	}
	if first.CostScale != 1 || first.CostCharged != first.FullCost || first.Refs != 1 {
		t.Fatalf("first offer = %+v", first)
	}
	second, err := c.OfferCatalogStream(ctx, 1, id)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Admitted {
		t.Fatalf("second offer rejected: %+v", second)
	}
	if second.CostScale != 0.25 || second.Refs != 2 {
		t.Fatalf("second offer = %+v", second)
	}
	if want := 0.25 * second.FullCost; second.CostCharged != want {
		t.Fatalf("second charge = %v, want %v", second.CostCharged, want)
	}
	if len(second.SharedWith) != 1 || second.SharedWith[0] != 0 {
		t.Fatalf("second SharedWith = %v", second.SharedWith)
	}

	// Re-offer by a holder: rejection, refcount untouched.
	again, err := c.OfferCatalogStream(ctx, 0, id)
	if err != nil || again.Admitted || again.Refs != 2 {
		t.Fatalf("re-offer = %+v, %v", again, err)
	}

	// Snapshot carries the catalog section with the savings.
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Catalog == nil || fs.Catalog.ActiveShared != 1 {
		t.Fatalf("catalog section = %+v", fs.Catalog)
	}
	if want := 0.75 * second.FullCost; fs.Catalog.OriginSavings != want {
		t.Fatalf("savings = %v, want %v", fs.Catalog.OriginSavings, want)
	}
	if !fs.AllFeasible {
		t.Fatal("fleet infeasible under discounted pricing")
	}

	// Departures: the full payer first (survivor keeps its discount),
	// then the survivor, which evicts.
	dep0, err := c.DepartCatalogStream(ctx, 0, id)
	if err != nil || !dep0.Removed || dep0.Refs != 1 || dep0.Evicted {
		t.Fatalf("first depart = %+v, %v", dep0, err)
	}
	dep1, err := c.DepartCatalogStream(ctx, 1, id)
	if err != nil || !dep1.Removed || dep1.Refs != 0 || !dep1.Evicted {
		t.Fatalf("last depart = %+v, %v", dep1, err)
	}
	// Departing a stream the tenant does not carry: Removed false.
	dep2, err := c.DepartCatalogStream(ctx, 2, id)
	if err != nil || dep2.Removed || dep2.Evicted {
		t.Fatalf("uncarried depart = %+v, %v", dep2, err)
	}
	// A fresh admission starts a new occupancy cycle at full price.
	fresh, err := c.OfferCatalogStream(ctx, 2, id)
	if err != nil || !fresh.Admitted || fresh.CostScale != 1 {
		t.Fatalf("post-eviction offer = %+v, %v", fresh, err)
	}
}

// TestCatalogErrors pins the sentinel taxonomy of the catalog surface.
func TestCatalogErrors(t *testing.T) {
	ctx := context.Background()

	// No catalog configured.
	in, err := generator.CableTV{Channels: 5, Gateways: 3, Seed: 9}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := New([]TenantConfig{{Instance: in}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.OfferCatalogStream(ctx, 0, "x"); !errors.Is(err, ErrNoCatalog) {
		t.Fatalf("no catalog: %v", err)
	}
	if _, err := bare.CatalogSnapshot(); !errors.Is(err, ErrNoCatalog) {
		t.Fatalf("no catalog snapshot: %v", err)
	}

	c := catalogTestFleet(t, 2, 5, 3, 11, 0.5, 1, nil)
	if _, err := c.OfferCatalogStream(ctx, 0, "nope"); !errors.Is(err, ErrUnknownCatalogStream) {
		t.Fatalf("unknown id: %v", err)
	}
	if _, err := c.DepartCatalogStream(ctx, 0, "nope"); !errors.Is(err, ErrUnknownCatalogStream) {
		t.Fatalf("unknown id depart: %v", err)
	}
	if _, err := c.OfferCatalogStream(ctx, 7, "s-000"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}

	// Bad bindings are rejected at construction.
	if _, err := New([]TenantConfig{{Instance: in}}, Options{
		Catalog: &CatalogOptions{Streams: []catalog.Binding{
			{ID: "x", Local: map[int]int{0: 99}},
		}},
	}); err == nil {
		t.Fatal("out-of-range binding accepted")
	}
	if _, err := New([]TenantConfig{{Instance: in}}, Options{
		Catalog: &CatalogOptions{Streams: []catalog.Binding{
			{ID: "x", Local: map[int]int{3: 0}},
		}},
	}); err == nil {
		t.Fatal("out-of-range tenant binding accepted")
	}
}

// TestCatalogConcurrentOffersDeparts is the cross-shard race check: all
// shards hammer the same CatalogIDs with offers and departures
// concurrently (run under -race). At the end every reference count must
// be zero, the accounting must balance, and evictions must not have
// double-fired (the registry's lifetime eviction count can never exceed
// its admission count, and a fresh post-storm admission is priced at
// full cost — proof the occupancy state drained cleanly).
func TestCatalogConcurrentOffersDeparts(t *testing.T) {
	const tenants, channels, rounds = 8, 6, 30
	c := catalogTestFleet(t, tenants, channels, 6, 530, 0.5, 4,
		catalog.SharedOrigin{ReplicationFraction: 0.25})
	ctx := context.Background()

	var wg sync.WaitGroup
	var mu sync.Mutex
	observedEvictions := 0
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + tenant)))
			for r := 0; r < rounds; r++ {
				id := catalog.ID(fmt.Sprintf("s-%03d", rng.Intn(channels)))
				res, err := c.OfferCatalogStream(ctx, tenant, id)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Admitted {
					dep, err := c.DepartCatalogStream(ctx, tenant, id)
					if err != nil {
						t.Error(err)
						return
					}
					if !dep.Removed {
						t.Errorf("tenant %d: admitted %s but depart found nothing", tenant, id)
						return
					}
					if dep.Evicted {
						mu.Lock()
						observedEvictions++
						mu.Unlock()
					}
				}
			}
		}(ti)
	}
	wg.Wait()

	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := fs.Catalog
	if snap == nil {
		t.Fatal("no catalog section")
	}
	for _, e := range snap.Entries {
		if e.Refs != 0 || len(e.Holders) != 0 {
			t.Fatalf("refcount leaked: %+v", e)
		}
		if e.Evictions > e.Admissions {
			t.Fatalf("eviction double-fired: %+v", e)
		}
		if e.ChargedCost > e.FullCost || e.Savings < 0 {
			t.Fatalf("accounting: %+v", e)
		}
	}
	if snap.Evictions < observedEvictions {
		t.Fatalf("registry evictions %d < observed %d", snap.Evictions, observedEvictions)
	}
	// Post-storm: every entry starts a fresh cycle at full price.
	for s := 0; s < channels; s++ {
		id := catalog.ID(fmt.Sprintf("s-%03d", s))
		res, err := c.OfferCatalogStream(ctx, 0, id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted && res.CostScale != 1 {
			t.Fatalf("post-storm %s priced at %v", id, res.CostScale)
		}
	}
}

// TestInstallReleasesDroppedCatalogRefs: an installing re-solve adopts
// the offline lineup wholesale, dropping catalog-admitted streams the
// offline solution excludes — their fleet references must be released,
// or later tenants would be discounted against an origin nobody pays
// for and the origin could never be evicted.
func TestInstallReleasesDroppedCatalogRefs(t *testing.T) {
	ctx := context.Background()
	in, err := generator.CableTV{Channels: 12, Gateways: 5, Seed: 901, EgressFraction: 0.3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := headend.NewThresholdPolicy(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	bindings := make([]catalog.Binding, in.NumStreams())
	for s := range bindings {
		bindings[s] = catalog.Binding{ID: catalog.ID(fmt.Sprintf("s-%03d", s)), Local: map[int]int{0: s}}
	}
	c, err := New([]TenantConfig{{Instance: in, Policy: pol}}, Options{
		Shards:  1,
		Catalog: &CatalogOptions{Streams: bindings, CostModel: catalog.SharedOrigin{ReplicationFraction: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for s := 0; s < in.NumStreams(); s++ {
		if _, err := c.OfferCatalogStream(ctx, 0, catalog.ID(fmt.Sprintf("s-%03d", s))); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refsBefore := 0
	for _, e := range before.Catalog.Entries {
		refsBefore += e.Refs
	}
	if refsBefore == 0 {
		t.Fatal("nothing admitted; workload cannot exercise the install-drop path")
	}

	rr, err := c.Resolve(ctx, 0, ResolveOptions{Install: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Installed {
		t.Fatalf("install skipped: %+v", rr)
	}
	after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The reconcile runs in both directions: with every stream bound,
	// the reference count must equal the installed lineup's carried
	// stream count exactly — dropped streams released, picked-up
	// streams registered.
	refsAfter := 0
	for _, e := range after.Catalog.Entries {
		refsAfter += e.Refs
	}
	if refsAfter != after.Tenants[0].ActiveStreams {
		t.Fatalf("refs after install = %d, carried streams = %d (registry desynced)",
			refsAfter, after.Tenants[0].ActiveStreams)
	}
	if refsAfter == refsBefore {
		t.Fatalf("install changed nothing (%d refs both sides); the offline lineup must "+
			"differ from the greedy one for this test to bite", refsBefore)
	}

	// No ghost references in either direction: a reference implies a
	// carried stream (depart removes it), no reference implies nothing
	// carried, and draining everything ends at zero refs fleet-wide.
	for _, e := range after.Catalog.Entries {
		dep, err := c.DepartCatalogStream(ctx, 0, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if e.Refs == 1 && !dep.Removed {
			t.Fatalf("%s: ref held but stream not carried (ghost reference)", e.ID)
		}
		if e.Refs == 0 && dep.Removed {
			t.Fatalf("%s: stream carried without a reference (ghost carry)", e.ID)
		}
		if e.Refs == 0 && dep.Evicted {
			t.Fatalf("%s: eviction without a reference", e.ID)
		}
	}
	final, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range final.Catalog.Entries {
		if e.Refs != 0 {
			t.Fatalf("%s: %d refs leaked after full drain", e.ID, e.Refs)
		}
	}
}

// TestApplyBatchIgnoresCallerCostScale: Event.CostScale is owned by the
// catalog's acquire protocol; a caller-supplied value must not buy a
// discount on the feasibility guard.
func TestApplyBatchIgnoresCallerCostScale(t *testing.T) {
	honest, cheater := batchTestClusters(t)
	ctx := context.Background()
	var plain, scaled []Event
	for s := 0; s < 15; s++ {
		plain = append(plain, Event{Type: EventStreamArrival, Stream: s})
		scaled = append(scaled, Event{Type: EventStreamArrival, Stream: s, CostScale: 1e-9})
	}
	for ti := 0; ti < honest.NumTenants(); ti++ {
		if _, err := honest.ApplyBatch(ctx, ti, plain); err != nil {
			t.Fatal(err)
		}
		if _, err := cheater.ApplyBatch(ctx, ti, scaled); err != nil {
			t.Fatal(err)
		}
	}
	hfs, err := honest.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := cheater.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if hfs.RenderTenants() != cfs.RenderTenants() {
		t.Fatalf("caller-supplied CostScale changed admissions:\n--- scaled\n%s\n--- plain\n%s",
			cfs.RenderTenants(), hfs.RenderTenants())
	}
}

// TestLocalIndexDepartReleasesFleetReference is the regression test for
// ROADMAP nuance (c): departing a catalog-managed stream by local index
// (plain DepartStream) must settle its fleet reference exactly like
// DepartCatalogStream — the shard worker resolves the binding and
// releases its held reference, so refs track carriage no matter which
// surface the departure came through, and a re-offer is a fresh
// full-price admission, not a ghost.
func TestLocalIndexDepartReleasesFleetReference(t *testing.T) {
	ctx := context.Background()
	c := catalogTestFleet(t, 2, 10, 5, 41, 0.9, 1, catalog.SharedOrigin{ReplicationFraction: 0.25})
	id := catalog.ID("s-002")

	first, err := c.OfferCatalogStream(ctx, 0, id)
	if err != nil || !first.Admitted || first.Refs != 1 {
		t.Fatalf("first offer = %+v, %v", first, err)
	}
	// Local-index departure: the worker must release the held fleet
	// reference (it was the last one, so the origin is evicted).
	if _, err := c.DepartStream(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	snap, err := c.CatalogSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	e := entryFor(t, snap, id)
	if e.Refs != 0 || e.Evictions != 1 {
		t.Fatalf("local-index depart leaked the reference: %+v", e)
	}

	// A second holder keeps the origin alive across one tenant's
	// local-index departure.
	for ti := 0; ti < 2; ti++ {
		if res, err := c.OfferCatalogStream(ctx, ti, id); err != nil || !res.Admitted {
			t.Fatalf("tenant %d re-offer = %+v, %v", ti, res, err)
		}
	}
	if _, err := c.DepartStream(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if snap, err = c.CatalogSnapshot(); err != nil {
		t.Fatal(err)
	}
	if e = entryFor(t, snap, id); e.Refs != 1 || e.Evictions != 1 {
		t.Fatalf("shared origin mis-settled after local-index depart: %+v", e)
	}

	// The re-offer after a local-index departure is a fresh admission at
	// the cost model's price (tenant 1 still holds the origin, so tenant
	// 0 pays the replication fraction), and the accounting records it.
	again, err := c.OfferCatalogStream(ctx, 0, id)
	if err != nil || !again.Admitted {
		t.Fatalf("re-offer = %+v, %v", again, err)
	}
	if again.CostScale != 0.25 || again.Refs != 2 {
		t.Fatalf("re-offer after release mispriced: %+v", again)
	}

	// Draining through either surface ends at zero refs — nothing leaks.
	if _, err := c.DepartStream(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	dep, err := c.DepartCatalogStream(ctx, 1, id)
	if err != nil || !dep.Removed || dep.Refs != 0 || !dep.Evicted {
		t.Fatalf("final depart = %+v, %v", dep, err)
	}
	if snap, err = c.CatalogSnapshot(); err != nil {
		t.Fatal(err)
	}
	if e = entryFor(t, snap, id); e.Refs != 0 {
		t.Fatalf("refs leaked after full drain: %+v", e)
	}
}

// entryFor returns the snapshot entry for id.
func entryFor(t *testing.T, snap *catalog.Snapshot, id catalog.ID) *catalog.EntrySnapshot {
	t.Helper()
	for i := range snap.Entries {
		if snap.Entries[i].ID == id {
			return &snap.Entries[i]
		}
	}
	t.Fatalf("no catalog entry %q", id)
	return nil
}

// TestCatalogNilContextAndDuplicateBindings pins two construction/entry
// edges: the catalog session methods accept a nil context like every
// other session method, and a (tenant, local stream) pair may back at
// most one catalog ID.
func TestCatalogNilContextAndDuplicateBindings(t *testing.T) {
	c := catalogTestFleet(t, 2, 5, 3, 12, 0.9, 1, nil)
	if _, err := c.OfferCatalogStream(nil, 0, "s-001"); err != nil { //lint:ignore SA1012 nil ctx is part of the session contract
		t.Fatalf("nil ctx offer: %v", err)
	}
	if _, err := c.DepartCatalogStream(nil, 0, "s-001"); err != nil { //lint:ignore SA1012 nil ctx is part of the session contract
		t.Fatalf("nil ctx depart: %v", err)
	}

	in, err := generator.CableTV{Channels: 5, Gateways: 3, Seed: 9}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New([]TenantConfig{{Instance: in}}, Options{
		Catalog: &CatalogOptions{Streams: []catalog.Binding{
			{ID: "x", Local: map[int]int{0: 2}},
			{ID: "y", Local: map[int]int{0: 2}},
		}},
	}); err == nil {
		t.Fatal("two catalog IDs bound to one (tenant, stream) accepted")
	}
}

// lookupCounter is a catalog.Service that counts the Lookup calls it
// forwards.
type lookupCounter struct {
	catalog.Service
	mu      sync.Mutex
	lookups int
}

func (s *lookupCounter) Lookup(id catalog.ID, tenant int) (int, error) {
	s.mu.Lock()
	s.lookups++
	s.mu.Unlock()
	return s.Service.Lookup(id, tenant)
}

// TestCatalogLookupAnsweredLocally pins where a catalog event's binding
// comes from: the cluster's own binding table, never the registry. A
// cluster over a Lookup-counting service runs catalog departures as
// session calls, on a stream and in a batch without one Lookup call,
// and ends with the same render as a cluster over an in-process
// registry fed the same events. Unknown and unbound IDs still fail
// with the cluster sentinel wrapping the catalog's.
func TestCatalogLookupAnsweredLocally(t *testing.T) {
	const tenants, channels = 3, 6
	// Identity bindings for all but the last channel, which only tenant
	// 0 carries as a catalog stream ("solo").
	bindings := catalog.IdentityBindings(tenants, channels-1, func(s int) catalog.ID {
		return catalog.ID(fmt.Sprintf("s-%03d", s))
	})
	bindings = append(bindings, catalog.Binding{ID: "solo", Local: map[int]int{0: channels - 1}})
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	build := func(remote catalog.Service) *Cluster {
		cfgs := make([]TenantConfig, tenants)
		for i := range cfgs {
			in, err := generator.CableTV{Channels: channels, Gateways: 4, Seed: 61 + int64(i), EgressFraction: 0.5}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
		}
		c, err := New(cfgs, Options{Shards: 2, BatchSize: 4,
			Catalog: &CatalogOptions{Streams: bindings, CostModel: model, Remote: remote}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	reg, err := catalog.NewRegistry(bindings, model)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	counter := &lookupCounter{Service: reg}
	ref, counted := build(nil), build(counter)

	ctx := context.Background()
	id := func(s int) catalog.ID { return catalog.ID(fmt.Sprintf("s-%03d", s)) }
	batch := []Event{
		{Type: EventStreamArrival, CatalogID: id(2)},
		{Type: EventStreamDeparture, CatalogID: id(0)},
		{Type: EventStreamDeparture, CatalogID: "solo"},
		{Type: EventStreamArrival, CatalogID: id(4)},
	}
	for _, c := range []*Cluster{ref, counted} {
		for _, st := range catalogScheduleFor(tenants, channels-1, 5) {
			var err error
			if st.depart {
				_, err = c.DepartCatalogStream(ctx, st.tenant, id(st.stream))
			} else {
				_, err = c.OfferCatalogStream(ctx, st.tenant, id(st.stream))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.OfferCatalogStream(ctx, 0, "solo"); err != nil {
			t.Fatal(err)
		}
		sc, err := c.OpenStream(StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < channels-1; s++ {
			if err := sc.Submit(ctx, Event{Tenant: 1, Type: EventStreamDeparture, CatalogID: id(s)}); err != nil {
				t.Fatal(err)
			}
			if res, err := sc.Recv(ctx); err != nil || res.Err != nil {
				t.Fatalf("streamed departure of %s: %+v, %v", id(s), res, err)
			}
		}
		sc.Close()
		if _, err := c.ApplyBatch(ctx, 0, batch); err != nil {
			t.Fatal(err)
		}
	}
	if counter.lookups != 0 {
		t.Fatalf("the cluster made %d registry Lookup calls, want 0", counter.lookups)
	}
	rs, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := counted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cs.Render(), rs.Render(); got != want {
		t.Fatalf("render over the counting service:\n%s\nin-process:\n%s", got, want)
	}

	for _, tc := range []struct {
		tenant int
		id     catalog.ID
		want   error
	}{{0, "nope", catalog.ErrUnknownID}, {1, "solo", catalog.ErrNotBound}} {
		_, err := counted.DepartCatalogStream(ctx, tc.tenant, tc.id)
		if !errors.Is(err, ErrUnknownCatalogStream) || !errors.Is(err, tc.want) {
			t.Fatalf("depart %q by tenant %d: %v; want %v and %v", tc.id, tc.tenant, err, ErrUnknownCatalogStream, tc.want)
		}
		_, err = counted.ApplyBatch(ctx, tc.tenant, []Event{{Type: EventStreamDeparture, CatalogID: tc.id}})
		if !errors.Is(err, ErrUnknownCatalogStream) || !errors.Is(err, tc.want) {
			t.Fatalf("batch depart %q by tenant %d: %v; want %v and %v", tc.id, tc.tenant, err, ErrUnknownCatalogStream, tc.want)
		}
	}
	if counter.lookups != 0 {
		t.Fatalf("refused events made %d registry Lookup calls, want 0", counter.lookups)
	}
}

// serviceCall is one catalog.Service call a callLog forwarded: the
// method, the ids an acquire carried, or the ops a settlement run
// carried.
type serviceCall struct {
	method string
	ids    []catalog.ID
	ops    []catalog.Settlement
}

// callLog is a catalog.Service that records every call it forwards.
type callLog struct {
	catalog.Service
	mu    sync.Mutex
	calls []serviceCall
}

func (s *callLog) record(call serviceCall) {
	s.mu.Lock()
	s.calls = append(s.calls, call)
	s.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (s *callLog) take() []serviceCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = nil
	return calls
}

func (s *callLog) Acquire(id catalog.ID, tenant int) (catalog.Ticket, error) {
	s.record(serviceCall{method: "Acquire", ids: []catalog.ID{id}})
	return s.Service.Acquire(id, tenant)
}

func (s *callLog) AcquireBatch(tenant int, ids []catalog.ID, out []catalog.Ticket) error {
	s.record(serviceCall{method: "AcquireBatch", ids: append([]catalog.ID(nil), ids...)})
	return s.Service.AcquireBatch(tenant, ids, out)
}

func (s *callLog) Lookup(id catalog.ID, tenant int) (int, error) {
	s.record(serviceCall{method: "Lookup", ids: []catalog.ID{id}})
	return s.Service.Lookup(id, tenant)
}

func (s *callLog) Release(id catalog.ID, tenant int, held, origin bool) (int, bool) {
	s.record(serviceCall{method: "Release", ids: []catalog.ID{id}})
	return s.Service.Release(id, tenant, held, origin)
}

func (s *callLog) SettleBatch(ops []catalog.Settlement, out []catalog.SettleResult) error {
	s.record(serviceCall{method: "SettleBatch", ops: append([]catalog.Settlement(nil), ops...)})
	return s.Service.SettleBatch(ops, out)
}

func (s *callLog) Snapshot() *catalog.Snapshot {
	s.record(serviceCall{method: "Snapshot"})
	return s.Service.Snapshot()
}

func (s *callLog) Close() {
	s.record(serviceCall{method: "Close"})
	s.Service.Close()
}

// TestCatalogRegistryTraffic pins the registry calls each surface
// makes, over a service that records every call: one ApplyBatch with k
// catalog arrivals and j catalog departures makes one AcquireBatch of
// the k ids and one SettleBatch of k+j ops, in batch order; a session
// offer makes one Acquire and one SettleBatch, a session departure one
// SettleBatch; and an installing re-solve settles its whole
// reconciliation in one SettleBatch.
func TestCatalogRegistryTraffic(t *testing.T) {
	ctx := context.Background()
	in, err := generator.CableTV{Channels: 12, Gateways: 5, Seed: 901, EgressFraction: 0.3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := headend.NewThresholdPolicy(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := func(s int) catalog.ID { return catalog.ID(fmt.Sprintf("s-%03d", s)) }
	bindings := make([]catalog.Binding, in.NumStreams())
	for s := range bindings {
		bindings[s] = catalog.Binding{ID: id(s), Local: map[int]int{0: s}}
	}
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	build := func() (*Cluster, *callLog) {
		reg, err := catalog.NewRegistry(bindings, model)
		if err != nil {
			t.Fatal(err)
		}
		log := &callLog{Service: reg}
		c, err := New([]TenantConfig{{Instance: in, Policy: pol}}, Options{
			Shards:  1,
			Catalog: &CatalogOptions{Streams: bindings, CostModel: model, Remote: log},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, log
	}
	c, log := build()
	one := func(calls []serviceCall, method string) serviceCall {
		t.Helper()
		if len(calls) != 1 || calls[0].method != method {
			t.Fatalf("calls %+v, want one %s", calls, method)
		}
		return calls[0]
	}

	// A session offer and a session departure.
	if _, err := c.OfferCatalogStream(ctx, 0, id(0)); err != nil {
		t.Fatal(err)
	}
	calls := log.take()
	if len(calls) != 2 || calls[0].method != "Acquire" || calls[1].method != "SettleBatch" ||
		len(calls[1].ops) != 1 || calls[1].ops[0].ID != id(0) {
		t.Fatalf("session offer made %+v, want one Acquire and one one-op SettleBatch", calls)
	}
	if _, err := c.DepartCatalogStream(ctx, 0, id(0)); err != nil {
		t.Fatal(err)
	}
	if call := one(log.take(), "SettleBatch"); len(call.ops) != 1 || call.ops[0].Op != catalog.SettleRelease {
		t.Fatalf("session departure settled %+v, want one release", call.ops)
	}

	// A batch of four catalog arrivals and two catalog departures, with
	// plain events between them.
	batch := []Event{
		{Type: EventStreamArrival, CatalogID: id(1)},
		{Type: EventStreamArrival, CatalogID: id(2)},
		{Type: EventUserLeave, User: 1},
		{Type: EventStreamDeparture, CatalogID: id(1)},
		{Type: EventStreamArrival, Stream: 7},
		{Type: EventStreamArrival, CatalogID: id(3)},
		{Type: EventUserJoin, User: 1},
		{Type: EventStreamArrival, CatalogID: id(4)},
		{Type: EventStreamDeparture, CatalogID: id(2)},
	}
	out, err := c.ApplyBatch(ctx, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	calls = log.take()
	if len(calls) != 2 || calls[0].method != "AcquireBatch" || calls[1].method != "SettleBatch" {
		t.Fatalf("batch made %+v, want one AcquireBatch and one SettleBatch", calls)
	}
	if got, want := calls[0].ids, []catalog.ID{id(1), id(2), id(3), id(4)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AcquireBatch ids %v, want %v", got, want)
	}
	var wantOps []catalog.Settlement
	for i, ev := range batch {
		switch {
		case ev.CatalogID == "":
		case ev.Type == EventStreamDeparture:
			wantOps = append(wantOps, catalog.Settlement{Op: catalog.SettleRelease, ID: ev.CatalogID})
		case out[i].Catalog.Admitted:
			wantOps = append(wantOps, catalog.Settlement{Op: catalog.SettleCommit, ID: ev.CatalogID})
		default:
			wantOps = append(wantOps, catalog.Settlement{Op: catalog.SettleReleasePending, ID: ev.CatalogID})
		}
	}
	if len(calls[1].ops) != len(wantOps) {
		t.Fatalf("SettleBatch carried %d ops, want %d", len(calls[1].ops), len(wantOps))
	}
	for k, op := range calls[1].ops {
		if op.Op != wantOps[k].Op || op.ID != wantOps[k].ID {
			t.Fatalf("settlement %d is %v of %s, want %v of %s", k, op.Op, op.ID, wantOps[k].Op, wantOps[k].ID)
		}
	}

	// On a fresh fleet, offer every stream, then install the offline
	// lineup (TestInstallReleasesDroppedCatalogRefs's setup): its
	// reconciliation must reach the registry as one settlement run.
	c, log = build()
	for s := 0; s < in.NumStreams(); s++ {
		if _, err := c.OfferCatalogStream(ctx, 0, id(s)); err != nil {
			t.Fatal(err)
		}
	}
	log.take()
	rr, err := c.Resolve(ctx, 0, ResolveOptions{Install: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Installed {
		t.Fatalf("install skipped: %+v", rr)
	}
	if call := one(log.take(), "SettleBatch"); len(call.ops) < 2 {
		t.Fatalf("install settled %d references, want at least 2 for the test to bite", len(call.ops))
	}
}
