package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bounds"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/generator"
	"repro/internal/online"
	"repro/streamclient"
)

// E16Config parameterizes E16.
type E16Config struct {
	// Tenants is the fleet size; Channels/Gateways shape each tenant.
	Tenants, Channels, Gateways int
	// Seed drives instance generation and both workload generators.
	Seed int64
	// ShardCounts are the serving layouts swept; renders must be
	// bit-identical across them per cost model.
	ShardCounts []int
}

// DefaultE16 returns the parameters behind mmdbench's E16 table.
func DefaultE16() E16Config {
	return E16Config{
		Tenants: 6, Channels: 12, Gateways: 4, Seed: 161,
		ShardCounts: []int{1, 2, 4},
	}
}

// e16Schedule builds E16's merged workload — Zipf background traffic
// with the scheduled flash crowd, plus diurnal stream/gateway churn —
// in wire form, and returns it with the crowd's CatalogID and the index
// of the last crowd offer (the spike's peak, where refcounts are
// sampled). The generator's event names are the wire's, so each event
// converts field by field.
func e16Schedule(cfg E16Config) ([]streamclient.Event, string, int, error) {
	zipf := generator.ZipfFlashCrowd{
		Tenants: cfg.Tenants, Channels: cfg.Channels, Gateways: cfg.Gateways,
		Seed: cfg.Seed, Rounds: 4, HoldRounds: 1, ZipfS: 1.6,
	}
	background, err := zipf.Generate()
	if err != nil {
		return nil, "", 0, err
	}
	churn, err := generator.Diurnal{
		Tenants: cfg.Tenants, Channels: cfg.Channels, Gateways: cfg.Gateways,
		Seed: cfg.Seed + 1, Days: 1, HourStep: 0.25,
		ExcludeChannel: zipf.CrowdChannel, // the crowd owns its channel
	}.Generate()
	if err != nil {
		return nil, "", 0, err
	}
	merged := generator.Merge(background, churn)
	events := make([]streamclient.Event, len(merged))
	crowdID := zipf.CrowdID()
	peak := -1
	for i, ev := range merged {
		events[i] = streamclient.Event{Tenant: ev.Tenant, Type: string(ev.Type),
			Stream: ev.Stream, User: ev.User, CatalogID: ev.CatalogID}
		if ev.Type == generator.EventCatalogOffer && ev.CatalogID == crowdID {
			peak = i
		}
	}
	if peak < 0 {
		return nil, "", 0, fmt.Errorf("E16: schedule has no crowd offers")
	}
	return events, crowdID, peak, nil
}

// e16Tenants builds the fleet. Unlike the durability drills' 0.25,
// the egress fraction leaves headroom for the spike: the point of the
// flash crowd is concurrent admissions of one CatalogID across most of
// the fleet, which a budget already saturated by background Zipf
// traffic would refuse tenant by tenant.
func e16Tenants(cfg E16Config) ([]cluster.TenantConfig, error) {
	tenants := make([]cluster.TenantConfig, cfg.Tenants)
	for i := range tenants {
		in, err := generator.CableTV{
			Channels: cfg.Channels, Gateways: cfg.Gateways,
			Seed: cfg.Seed + int64(i), EgressFraction: 0.8,
		}.Generate()
		if err != nil {
			return nil, err
		}
		tenants[i] = cluster.TenantConfig{Instance: in}
	}
	return tenants, nil
}

// e16CrowdEntry finds the crowd's catalog entry in a snapshot.
func e16CrowdEntry(c *cluster.Cluster, crowdID string) (catalog.EntrySnapshot, error) {
	snap, err := c.CatalogSnapshot()
	if err != nil {
		return catalog.EntrySnapshot{}, err
	}
	for _, e := range snap.Entries {
		if string(e.ID) == crowdID {
			return e, nil
		}
	}
	return catalog.EntrySnapshot{}, fmt.Errorf("E16: crowd entry %s missing from catalog snapshot", crowdID)
}

// E16FlashCrowd drives the merged Zipf + flash-crowd + diurnal-churn
// workload through the full cluster/catalog stack at several shard
// counts under both cost models. The flash crowd makes one CatalogID
// spike across most of the fleet at once — the shared-origin sweet
// spot and the refcount stress the registry was built for. The claim
// holds when, for every (model, shards) cell: the fleet stays feasible
// with positive utility at the spike's peak, the crowd entry's
// refcount returns to zero and its eviction fires exactly once (the
// schedule gives it exactly one occupancy cycle), the drain audit
// settles every entry at zero references, and both the peak and final
// renders are bit-identical across shard counts.
func E16FlashCrowd(cfg E16Config) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "Flash-crowd and diurnal workload through the serving stack",
		Claim: "Skewed production-shaped traffic (Zipf popularity, a one-shot " +
			"flash crowd, day/night churn) keeps the fleet feasible; catalog " +
			"refcounts drain to zero, the crowd eviction fires exactly once, " +
			"and renders are shard-count invariant",
		Columns: []string{"cost model", "shards", "events", "peak utility",
			"peak crowd refs", "crowd evictions", "refs drained", "identical"},
	}
	events, crowdID, peak, err := e16Schedule(cfg)
	if err != nil {
		return nil, err
	}
	allOK := true
	for _, m := range e15Models {
		var refTables, refCat string
		for si, shards := range cfg.ShardCounts {
			tenants, err := e16Tenants(cfg)
			if err != nil {
				return nil, err
			}
			c, err := cluster.New(tenants, cluster.Options{
				Shards: shards, BatchSize: 8,
				Catalog: &cluster.CatalogOptions{
					Streams:   catalog.IdentityBindings(cfg.Tenants, cfg.Channels, e14ChannelID),
					CostModel: m.model,
				},
			})
			if err != nil {
				return nil, err
			}
			for _, ev := range events[:peak+1] {
				if _, err := c.Apply(context.Background(), ev.Routed()); err != nil {
					_ = c.Close()
					return nil, err
				}
			}
			fs, err := c.Snapshot()
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			peakUtility, peakFeasible := fs.Utility, fs.AllFeasible
			peakTables := fs.RenderTenants()
			crowdPeak, err := e16CrowdEntry(c, crowdID)
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			for _, ev := range events[peak+1:] {
				if _, err := c.Apply(context.Background(), ev.Routed()); err != nil {
					_ = c.Close()
					return nil, err
				}
			}
			crowdEnd, err := e16CrowdEntry(c, crowdID)
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			drained, err := e15DrainRefs(c)
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			endTables, endCat, err := e14Renders(c)
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			_ = c.Close()

			identical := true
			if si == 0 {
				refTables, refCat = peakTables+endTables, endCat
			} else {
				identical = refTables == peakTables+endTables && refCat == endCat
			}
			ok := peakFeasible && peakUtility > 0 &&
				crowdPeak.Refs >= 2 && crowdEnd.Refs == 0 &&
				crowdEnd.Evictions == 1 && drained && identical
			if !ok {
				allOK = false
			}
			t.Rows = append(t.Rows, []string{
				m.name, d(shards), d(len(events)), f1(peakUtility),
				d(crowdPeak.Refs), d(crowdEnd.Evictions),
				fmt.Sprintf("%v", crowdEnd.Refs == 0 && drained),
				fmt.Sprintf("%v", identical),
			})
		}
	}
	t.Verdict = verdict(allOK)
	t.Notes = "The crowd CatalogID is excluded from background and churn sampling, " +
		"so its entry has exactly one occupancy cycle: refs 0 -> crowd size -> 0, " +
		"one eviction. Peak columns are sampled at the last crowd offer; renders " +
		"compare peak tables plus final tables and catalog across shard counts."
	return t, nil
}

// E17Config parameterizes E17.
type E17Config struct {
	// Streams and Users size each instance (small enough for the exact
	// solver to provide the reference optimum).
	Streams, Users int
	// Orders is the number of random arrival orders per instance.
	Orders int
	// Fractions is the stream-size sweep: each instance's largest
	// cost-to-budget ratio. Values at or below 1/log2(mu) are inside
	// the Section 5 small-streams hypothesis; larger values violate it.
	Fractions []float64
	// Seed drives instance generation and the arrival orders.
	Seed int64
}

// DefaultE17 returns the parameters behind mmdbench's E17 table.
func DefaultE17() E17Config {
	return E17Config{
		Streams: 10, Users: 3, Orders: 4,
		Fractions: []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 0.95},
		Seed:      171,
	}
}

// E17CompetitiveStress measures where the online allocator's guarantee
// actually degrades. The LargeStreams generator pins each instance's
// largest cost as an exact fraction of the server budget — the knob the
// small-streams hypothesis turns on — and the sweep walks that fraction
// from well inside the regime to an outright violation. Every instance
// is solved exactly for the reference optimum (sanity-checked against
// the combinatorial upper bounds), then replayed through the online
// allocator under several random arrival orders. In-regime rows must
// respect Theorem 5.4 (worst ratio <= 1 + 2*log2(mu)) with zero
// feasibility violations; out-of-regime rows map the degradation curve
// and may legitimately exceed the bound or go infeasible — that is the
// measurement, not a failure.
func E17CompetitiveStress(cfg E17Config) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "Adversarial stream sizes: competitive ratio vs the hypothesis",
		Claim: "Theorem 5.4's ratio bound holds on every instance satisfying the " +
			"small-streams hypothesis; outside it the guarantee is void and the " +
			"measured ratio maps the degradation",
		Columns: []string{"size fraction", "regime", "mu", "bound",
			"worst ratio over orders", "violations"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	allOK := true
	inRegimeRows, outRegimeRows := 0, 0
	var xs, ys []float64
	for fi, fraction := range cfg.Fractions {
		in, err := generator.LargeStreams{
			Streams: cfg.Streams, Users: cfg.Users,
			Seed: cfg.Seed + int64(fi), SizeFraction: fraction,
		}.Generate()
		if err != nil {
			return nil, err
		}
		norm, err := online.Normalize(in)
		if err != nil {
			return nil, err
		}
		inRegime := online.CheckSmallStreams(norm.Instance, norm.Mu()) == nil
		opt, err := exact.Solve(in, exact.Options{})
		if err != nil {
			return nil, err
		}
		if opt.Value <= 0 {
			return nil, fmt.Errorf("E17: fraction %v produced a zero-optimum instance", fraction)
		}
		// The reference optimum is itself cross-checked: it can never
		// exceed the combinatorial upper bounds.
		if ub := bounds.UpperBound(in); opt.Value > ub+1e-9 {
			return nil, fmt.Errorf("E17: exact OPT %v exceeds upper bound %v", opt.Value, ub)
		}
		bound := norm.CompetitiveBound()
		worst := 0.0
		violations := 0
		for o := 0; o < cfg.Orders; o++ {
			al, err := online.NewAllocator(norm.Instance, norm.Mu())
			if err != nil {
				return nil, err
			}
			a := al.RunSequence(rng.Perm(in.NumStreams()))
			if a.CheckFeasible(in) != nil {
				violations++
			}
			r := opt.Value / math.Max(a.Utility(in), 1e-12)
			worst = math.Max(worst, r)
		}
		regime := "in"
		if inRegime {
			inRegimeRows++
			if violations > 0 || worst > bound+1e-9 {
				allOK = false
			}
		} else {
			regime = "OUT"
			outRegimeRows++
		}
		xs = append(xs, fraction)
		ys = append(ys, worst)
		t.Rows = append(t.Rows, []string{
			f(fraction), regime, f1(norm.Mu()), f1(bound), f(worst), d(violations),
		})
	}
	// The sweep must actually cross the hypothesis boundary, or the
	// experiment measured nothing.
	if inRegimeRows == 0 || outRegimeRows == 0 {
		return nil, fmt.Errorf("E17: sweep never crossed the regime boundary (%d in, %d out)",
			inRegimeRows, outRegimeRows)
	}
	t.Verdict = verdict(allOK)
	t.Notes = "Normalize preserves cost-to-budget ratios, so the size fraction alone " +
		"decides the regime (in iff fraction <= 1/log2(mu)); the regime column is " +
		"classified per instance by CheckSmallStreams, never analytically. OUT rows " +
		"void the Theorem 5.4 precondition: ratios above the bound there are the " +
		"degradation map, not violations."
	t.Figure = asciiLogLog("E17 worst competitive ratio vs stream size fraction",
		xs, ys, 0, 44, 10)
	return t, nil
}
