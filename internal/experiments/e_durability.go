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

	// The drill drives E15's schedule on E15's fleet options.
	fleet := E15Config{Tenants: cfg.Tenants, Channels: cfg.Channels, Gateways: cfg.Gateways, Seed: cfg.Seed}
	schedule := e15Schedule(fleet)
	allHold := true
	for si, shards := range cfg.ShardCounts {
		recoverShards := cfg.ShardCounts[(si+1)%len(cfg.ShardCounts)]
		for _, m := range e15Models {
			// Control: same schedule, no WAL, never crashes.
			control, err := e15Control(fleet, shards, m.model, schedule)
			if err != nil {
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
			walOpts := e15Options(fleet, shards, m.model)
			walOpts.WAL = &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch}
			tenants, err := e14Tenants(cfg)
			if err != nil {
				return nil, err
			}
			doomed, err := cluster.New(tenants, walOpts)
			if err != nil {
				return nil, err
			}
			for i, ev := range schedule {
				// The checkpoint between the two rounds makes recovery
				// verify a mid-log manifest fence, not just the tail.
				if i == len(schedule)/2 {
					if _, err := doomed.Checkpoint("drill"); err != nil {
						return nil, err
					}
				}
				if _, err := doomed.Apply(context.Background(), ev.Routed()); err != nil {
					return nil, err
				}
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
				fmt.Sprintf("%d", len(schedule)),
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
