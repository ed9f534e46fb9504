package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/generator"
)

// E13Config parameterizes E13.
type E13Config struct {
	// Tenants is the fleet size; Channels/Gateways shape each tenant
	// (every tenant is the same head-end shape and the same seed, so
	// overlapping catalog entries really are the same stream).
	Tenants, Channels, Gateways int
	// Seed drives instance generation and the offer order.
	Seed int64
	// EgressFraction makes the server budgets contended, so admission
	// pricing actually bites.
	EgressFraction float64
	// ReplicationFraction is the SharedOrigin discount.
	ReplicationFraction float64
	// Overlaps are the catalog-overlap fractions swept: at overlap f,
	// the first f×Channels streams carry fleet identity and are offered
	// through the catalog; the rest stay tenant-local.
	Overlaps []float64
}

// DefaultE13 returns the parameters behind mmdbench's E13 table.
func DefaultE13() E13Config {
	return E13Config{
		Tenants: 6, Channels: 30, Gateways: 8, Seed: 132,
		EgressFraction: 0.15, ReplicationFraction: 0.25,
		Overlaps: []float64{0, 0.5, 1},
	}
}

// e13Run is one (overlap, cost model) configuration's quiesced state.
type e13Run struct {
	utility float64
	savings float64
	shared  int
}

// E13SharedCatalog measures the tentpole of the catalog redesign: on an
// egress-contended fleet whose tenants overlap in catalog content, the
// SharedOrigin cost model (transcode once at the regional origin, later
// tenants pay only the multicast-replication fraction) admits at least
// the fleet utility of fully isolated tenants, and the origin-cost
// savings grow monotonically with the tenant overlap. Isolated runs
// through the identical catalog machinery at full price — the
// differential tests pin it bit-identical to the pre-catalog path — so
// the comparison isolates the pricing, not the plumbing.
func E13SharedCatalog(cfg E13Config) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Cross-shard shared streams under reference-counted admission",
		Claim: "Regional-CDN sharing: with SharedOrigin pricing, fleet utility is at " +
			"least the isolated fleet's and origin-cost savings are monotone in the " +
			"catalog overlap across tenants",
		Columns: []string{"overlap", "isolated utility", "shared utility",
			"origin savings", "shared streams", "utility >= isolated"},
	}

	runOnce := func(overlap float64, model catalog.CostModel) (*e13Run, error) {
		sharedStreams := int(overlap * float64(cfg.Channels))
		tenants := make([]cluster.TenantConfig, cfg.Tenants)
		for i := range tenants {
			in, err := generator.CableTV{
				Channels: cfg.Channels, Gateways: cfg.Gateways,
				Seed: cfg.Seed, EgressFraction: cfg.EgressFraction,
			}.Generate()
			if err != nil {
				return nil, err
			}
			tenants[i] = cluster.TenantConfig{Instance: in}
		}
		bindings := catalog.IdentityBindings(cfg.Tenants, sharedStreams, func(s int) catalog.ID {
			return catalog.ID(fmt.Sprintf("s-%03d", s))
		})
		c, err := cluster.New(tenants, cluster.Options{
			Shards: 4, BatchSize: 8,
			Catalog: &cluster.CatalogOptions{Streams: bindings, CostModel: model},
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()

		// Offer every stream at every tenant, interleaved across tenants
		// in a seeded catalog order, so shared streams are concurrently
		// held and later tenants actually see a positive refcount.
		ctx := context.Background()
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, s := range rng.Perm(cfg.Channels) {
			for ti := 0; ti < cfg.Tenants; ti++ {
				if s < sharedStreams {
					if _, err := c.OfferCatalogStream(ctx, ti, bindings[s].ID); err != nil {
						return nil, err
					}
				} else {
					if _, err := c.OfferStream(ctx, ti, s); err != nil {
						return nil, err
					}
				}
			}
		}
		fs, err := c.Snapshot()
		if err != nil {
			return nil, err
		}
		if !fs.AllFeasible {
			return nil, fmt.Errorf("E13: fleet infeasible at overlap %.2f", overlap)
		}
		run := &e13Run{utility: fs.Utility}
		if fs.Catalog != nil {
			run.savings = fs.Catalog.OriginSavings
			run.shared = fs.Catalog.ActiveShared
		}
		return run, nil
	}

	ok := true
	prevSavings := -1.0
	for _, overlap := range cfg.Overlaps {
		iso, err := runOnce(overlap, catalog.Isolated{})
		if err != nil {
			return nil, err
		}
		shared, err := runOnce(overlap, catalog.SharedOrigin{ReplicationFraction: cfg.ReplicationFraction})
		if err != nil {
			return nil, err
		}
		if iso.savings != 0 {
			return nil, fmt.Errorf("E13: isolated model saved %v", iso.savings)
		}
		improved := shared.utility >= iso.utility
		if !improved || shared.savings < prevSavings {
			ok = false
		}
		if overlap == 0 && shared.savings != 0 {
			ok = false
		}
		if overlap > 0 && shared.savings <= 0 {
			ok = false
		}
		prevSavings = shared.savings
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", overlap), f1(iso.utility), f1(shared.utility),
			f1(shared.savings), d(shared.shared), fmt.Sprintf("%v", improved),
		})
	}
	t.Verdict = verdict(ok)
	t.Notes = fmt.Sprintf("%d identical tenants, %d channels x %d gateways, egress fraction "+
		"%.2f (contended); SharedOrigin replication fraction %.2f. At overlap f the first "+
		"f x channels streams are offered through the catalog by every tenant (interleaved, "+
		"so refcounts are live at admission time); the rest are offered tenant-locally. "+
		"Isolated runs the same catalog machinery at full price.",
		cfg.Tenants, cfg.Channels, cfg.Gateways, cfg.EgressFraction, cfg.ReplicationFraction)
	return t, nil
}
