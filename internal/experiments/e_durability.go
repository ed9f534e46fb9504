package experiments

import (
	"context"
	"fmt"
	"os"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/generator"
	"repro/internal/wal"
)

// E14Config parameterizes E14.
type E14Config struct {
	// Tenants is the fleet size; Channels/Gateways shape each tenant.
	Tenants, Channels, Gateways int
	// Seed drives instance generation (tenant i uses Seed+i, the
	// mmdserve convention — recovery must regenerate the same fleet).
	Seed int64
	// ShardCounts are the serving layouts drilled; each crashed fleet
	// recovers into the NEXT count in the list (wrapping), so the drill
	// also exercises replaying a log across a layout change.
	ShardCounts []int
}

// DefaultE14 returns the parameters behind mmdbench's E14 table.
func DefaultE14() E14Config {
	return E14Config{
		Tenants: 4, Channels: 12, Gateways: 4, Seed: 147,
		ShardCounts: []int{1, 2, 4},
	}
}

// e14Tenants regenerates the fleet's tenant configs — called once for
// the control fleet, once for the WAL fleet, and once more for
// recovery, standing in for three separate process lifetimes.
func e14Tenants(cfg E14Config) ([]cluster.TenantConfig, error) {
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
	return tenants, nil
}

// e14Drive submits the drill's deterministic schedule: two rounds of
// interleaved plain offers, catalog offers (every third channel),
// departures, and gateway churn, serial per tenant — so per-tenant
// ordering, which the WAL must reproduce, is fixed. checkpoint, when
// non-nil, fires between the rounds (the recovery then verifies the
// mid-log manifest fence, not just the tail).
func e14Drive(c *cluster.Cluster, cfg E14Config, checkpoint func() error) (int, error) {
	ctx := context.Background()
	total := 0
	for round := 0; round < 2; round++ {
		for t := 0; t < cfg.Tenants; t++ {
			for s := 0; s < cfg.Channels; s++ {
				var err error
				if s%3 == 0 {
					_, err = c.OfferCatalogStream(ctx, t, e14ChannelID(s))
				} else {
					_, err = c.OfferStream(ctx, t, s)
				}
				if err != nil {
					return total, err
				}
				total++
				if s%3 == 2 && s > 2 {
					if s%6 == 5 {
						_, err = c.DepartCatalogStream(ctx, t, e14ChannelID(s-2))
					} else {
						_, err = c.DepartStream(ctx, t, s-1)
					}
					if err != nil {
						return total, err
					}
					total++
				}
				if s%5 == 4 {
					if _, err = c.UserLeave(ctx, t, (s+t)%cfg.Gateways); err != nil {
						return total, err
					}
					if _, err = c.UserJoin(ctx, t, (s+t)%cfg.Gateways); err != nil {
						return total, err
					}
					total += 2
				}
			}
		}
		if round == 0 && checkpoint != nil {
			if err := checkpoint(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func e14ChannelID(s int) catalog.ID {
	return catalog.ID(fmt.Sprintf("ch-%03d", s))
}

// e14Renders quiesces the fleet and returns its two canonical renders.
func e14Renders(c *cluster.Cluster) (tables, cat string, err error) {
	fs, err := c.Snapshot()
	if err != nil {
		return "", "", err
	}
	tables = fs.RenderTenants()
	if fs.Catalog != nil {
		cat = fs.Catalog.Render()
	}
	return tables, cat, nil
}

// E14CrashRecovery drills the durability subsystem: for each shard
// count and catalog cost model, a WAL-backed fleet serves a
// deterministic schedule under group commit, checkpoints mid-log, and
// is then abandoned without any shutdown — the in-process equivalent
// of SIGKILL, since under SyncBatch every acknowledged event is
// already fsynced. Recovery reopens the log in a freshly built fleet
// on a DIFFERENT shard count (the next in the sweep), replays it
// through the normal ingest path, and verifies against the mid-log
// checkpoint manifest. The claim holds when every recovered fleet's
// per-tenant tables and catalog registry render byte-identical to a
// control fleet that served the same schedule and never crashed.
func E14CrashRecovery(cfg E14Config) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Crash recovery from the per-shard write-ahead log",
		Claim: "A fleet killed without warning and recovered from its WAL is " +
			"bit-identical to one that never crashed — per-tenant tables and " +
			"catalog registry — at every shard count, under either catalog cost " +
			"model, even recovering into a different shard count",
		Columns: []string{"shards", "recovered into", "cost model", "events",
			"ckpt verified", "bit-identical"},
	}

	models := []struct {
		name  string
		model catalog.CostModel
	}{
		{"isolated", catalog.Isolated{}},
		{"shared-origin", catalog.SharedOrigin{ReplicationFraction: 0.25}},
	}

	allHold := true
	for si, shards := range cfg.ShardCounts {
		recoverShards := cfg.ShardCounts[(si+1)%len(cfg.ShardCounts)]
		for _, m := range models {
			opts := cluster.Options{
				Shards: shards, BatchSize: 8,
				Catalog: &cluster.CatalogOptions{
					Streams:   catalog.IdentityBindings(cfg.Tenants, cfg.Channels, e14ChannelID),
					CostModel: m.model,
				},
			}

			// Control: same schedule, no WAL, never crashes.
			tenants, err := e14Tenants(cfg)
			if err != nil {
				return nil, err
			}
			control, err := cluster.New(tenants, opts)
			if err != nil {
				return nil, err
			}
			if _, err := e14Drive(control, cfg, nil); err != nil {
				return nil, err
			}
			wantTables, wantCat, err := e14Renders(control)
			if err != nil {
				return nil, err
			}
			if err := control.Close(); err != nil {
				return nil, err
			}

			// The fleet that crashes: WAL on, group commit, one explicit
			// mid-drive checkpoint. Abandoned without Close — the leaked
			// shard workers idle forever, exactly like a killed process's
			// threads never ran again.
			dir, err := os.MkdirTemp("", "e14-wal-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			walOpts := opts
			walOpts.WAL = &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch}
			tenants, err = e14Tenants(cfg)
			if err != nil {
				return nil, err
			}
			doomed, err := cluster.New(tenants, walOpts)
			if err != nil {
				return nil, err
			}
			events, err := e14Drive(doomed, cfg, func() error {
				_, err := doomed.Checkpoint("drill")
				return err
			})
			if err != nil {
				return nil, err
			}

			// Recovery, into the next layout in the sweep.
			tenants, err = e14Tenants(cfg)
			if err != nil {
				return nil, err
			}
			recOpts := walOpts
			recOpts.Shards = recoverShards
			recovered, rep, err := cluster.Recover(tenants, recOpts)
			if err != nil {
				return nil, fmt.Errorf("E14: recover %d->%d shards (%s): %w",
					shards, recoverShards, m.name, err)
			}
			gotTables, gotCat, err := e14Renders(recovered)
			if err != nil {
				return nil, err
			}
			if err := recovered.Close(); err != nil {
				return nil, err
			}

			identical := gotTables == wantTables && gotCat == wantCat
			allHold = allHold && identical && rep.CheckpointVerified
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", shards),
				fmt.Sprintf("%d", recoverShards),
				m.name,
				fmt.Sprintf("%d", events),
				fmt.Sprintf("%v", rep.CheckpointVerified),
				fmt.Sprintf("%v", identical),
			})
		}
	}
	t.Verdict = verdict(allHold)
	t.Notes = "Crash = the fleet is abandoned mid-flight with no shutdown path run; " +
		"group commit (SyncBatch) makes every acknowledged event durable, so the " +
		"recovered state must equal the control's exactly. Each recovery replays " +
		"into a different shard count than the one that logged."
	return t, nil
}
