package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/generator"
)

// E12Config parameterizes E12.
type E12Config struct {
	// Tenants is the fleet size; Channels/Gateways shape each tenant.
	Tenants, Channels, Gateways int
	// Seed drives instance generation and the workload.
	Seed int64
	// Rounds replays each tenant's catalog; DepartEvery/ChurnEvery
	// inject churn (see cluster.Workload).
	Rounds, DepartEvery, ChurnEvery int
	// ShardCounts are the shard configurations compared.
	ShardCounts []int
}

// DefaultE12 returns the parameters behind mmdbench's E12 table.
func DefaultE12() E12Config {
	return E12Config{
		Tenants: 8, Channels: 20, Gateways: 6, Seed: 120,
		Rounds: 2, DepartEvery: 3, ChurnEvery: 5,
		ShardCounts: []int{1, 2, 4, 8},
	}
}

// e12Run is one shard-count configuration's result: the quiesced
// churn-phase snapshot, then the snapshot after every tenant installed
// a fresh offline re-solve through the request/response API.
type e12Run struct {
	churn, installed *cluster.FleetSnapshot
	installs         int
}

// E12Cluster exercises the sharded multi-tenant serving layer the
// paper's Fig. 1 implies: N independent head-ends operated as one
// fleet, driven through the serving API v2. The invariants checked are
// the cluster's contract — every tenant stays feasible under arrivals
// and churn, per-tenant results are bit-identical across shard counts
// (sharding changes only wall-clock, never outcomes), and an
// installing re-solve (Resolve with Install) never leaves the fleet
// below its drifted online (monitoring-only) utility.
func E12Cluster(cfg E12Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Sharded multi-tenant head-end fleet",
		Claim: "Fig. 1 at fleet scale: independent tenants admit concurrently under " +
			"per-shard workers admitting in submission order; feasibility holds everywhere, " +
			"results are invariant under the shard count, and installing the offline " +
			"re-solve only improves fleet utility",
		Columns: []string{"shards", "online utility", "installed utility", "installs",
			"offered", "admitted", "churn events", "feasible", "tables identical"},
	}
	runOnce := func(shards int) (*e12Run, error) {
		tenants := make([]cluster.TenantConfig, cfg.Tenants)
		for i := range tenants {
			in, err := generator.CableTV{
				Channels: cfg.Channels, Gateways: cfg.Gateways,
				Seed: cfg.Seed + int64(i), EgressFraction: 0.25,
			}.Generate()
			if err != nil {
				return nil, err
			}
			tenants[i] = cluster.TenantConfig{Instance: in}
		}
		c, err := cluster.New(tenants, cluster.Options{Shards: shards, BatchSize: 8})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		churnFS, _, err := c.RunWorkload(cluster.Workload{
			Seed: cfg.Seed, Rounds: cfg.Rounds,
			DepartEvery: cfg.DepartEvery, ChurnEvery: cfg.ChurnEvery,
		})
		if err != nil {
			return nil, err
		}
		run := &e12Run{churn: churnFS}
		ctx := context.Background()
		for ti := 0; ti < c.NumTenants(); ti++ {
			res, err := c.Resolve(ctx, ti, cluster.ResolveOptions{Install: true})
			if err != nil {
				return nil, err
			}
			if res.Installed {
				run.installs++
			}
		}
		if run.installed, err = c.Snapshot(); err != nil {
			return nil, err
		}
		return run, nil
	}

	ok := true
	baseChurn, baseInstalled := "", ""
	for _, shards := range cfg.ShardCounts {
		run, err := runOnce(shards)
		if err != nil {
			return nil, err
		}
		churnTable := run.churn.RenderTenants()
		installedTable := run.installed.RenderTenants()
		if baseChurn == "" {
			baseChurn, baseInstalled = churnTable, installedTable
		}
		identical := churnTable == baseChurn && installedTable == baseInstalled
		churn := run.churn.Departed + run.churn.Leaves + run.churn.Joins
		improved := run.installed.Utility >= run.churn.Utility
		if !run.churn.AllFeasible || !run.installed.AllFeasible ||
			!identical || !improved || churn == 0 {
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			d(shards), f1(run.churn.Utility), f1(run.installed.Utility), d(run.installs),
			d(run.churn.Offered), d(run.churn.Admitted), d(churn),
			fmt.Sprintf("%v", run.churn.AllFeasible && run.installed.AllFeasible),
			fmt.Sprintf("%v", identical),
		})
	}
	t.Verdict = verdict(ok)
	t.Notes = fmt.Sprintf("%d tenants, %d channels x %d gateways each; guarded online "+
		"admission; departures every %d arrivals, gateway churn every %d; after the "+
		"churn phase every tenant re-solves with Install: the offline Theorem 1.1 "+
		"lineup replaces the drifted online assignment make-before-break.",
		cfg.Tenants, cfg.Channels, cfg.Gateways, cfg.DepartEvery, cfg.ChurnEvery)
	return t, nil
}
