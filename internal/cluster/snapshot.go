package cluster

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// FleetSnapshot is the aggregated state of the whole cluster at a
// barrier: per-tenant snapshots in tenant order, per-shard stats in
// shard order, and fleet-wide sums. For a deterministic submission
// sequence the per-tenant section is bit-identical regardless of the
// shard count, and the full snapshot is byte-identical across
// invocations with the same options.
type FleetSnapshot struct {
	// Shards is the shard count the snapshot was taken with.
	Shards int
	// Tenants holds one snapshot per tenant, in tenant index order.
	Tenants []TenantSnapshot
	// ShardStats holds one entry per shard, in shard index order.
	ShardStats []ShardStats
	// Fleet-wide sums over Tenants.
	Utility                                    float64
	Offered, Admitted, Departed, Leaves, Joins int
	Resolves, Installs, ActiveStreams, Pairs   int
	// AllFeasible is true when every tenant's assignment satisfies its
	// budgets and capacities.
	AllFeasible bool
	// Catalog is the fleet catalog state (per-stream reference counts,
	// origin-cost accounting) — nil when no catalog is configured, so
	// pre-catalog snapshots are unchanged.
	Catalog *catalog.Snapshot
}

// SumTenants sets the fleet-wide sums and AllFeasible from Tenants,
// walking them in tenant order — the one reduction behind a cluster's
// barrier and a fleet router's merge.
func (fs *FleetSnapshot) SumTenants() {
	fs.Utility = 0
	fs.Offered, fs.Admitted, fs.Departed, fs.Leaves, fs.Joins = 0, 0, 0, 0, 0
	fs.Resolves, fs.Installs, fs.ActiveStreams, fs.Pairs = 0, 0, 0, 0
	fs.AllFeasible = true
	for _, ts := range fs.Tenants {
		fs.Utility += ts.Utility
		fs.Offered += ts.StreamsOffered
		fs.Admitted += ts.StreamsAdmitted
		fs.Departed += ts.StreamsDeparted
		fs.Leaves += ts.UserLeaves
		fs.Joins += ts.UserJoins
		fs.Resolves += ts.Resolves
		fs.Installs += ts.Installs
		fs.ActiveStreams += ts.ActiveStreams
		fs.Pairs += ts.Pairs
		fs.AllFeasible = fs.AllFeasible && ts.Feasible
	}
}

// Render returns the snapshot as deterministic text tables (fleet
// summary, per-shard, per-tenant). Two runs with the same seed and
// options produce byte-identical output.
func (fs *FleetSnapshot) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet: %d tenant%s on %d shard%s\n",
		len(fs.Tenants), plural(len(fs.Tenants)), fs.Shards, plural(fs.Shards))
	fmt.Fprintf(&sb, "  utility   %.3f\n", fs.Utility)
	fmt.Fprintf(&sb, "  offered   %d\n", fs.Offered)
	fmt.Fprintf(&sb, "  admitted  %d\n", fs.Admitted)
	fmt.Fprintf(&sb, "  departed  %d\n", fs.Departed)
	fmt.Fprintf(&sb, "  churn     %d leaves, %d joins, %d resolves (%d installed)\n",
		fs.Leaves, fs.Joins, fs.Resolves, fs.Installs)
	fmt.Fprintf(&sb, "  carrying  %d streams over %d (user,stream) pairs\n", fs.ActiveStreams, fs.Pairs)
	fmt.Fprintf(&sb, "  feasible  %v\n", fs.AllFeasible)

	sb.WriteString("\nshard  tenants  events  batches  maxbatch  arrivals  admitted  departs  leaves  joins  resolves\n")
	for _, st := range fs.ShardStats {
		fmt.Fprintf(&sb, "%5d  %7d  %6d  %7d  %8d  %8d  %8d  %7d  %6d  %5d  %8d\n",
			st.Shard, st.Tenants, st.Events, st.Batches, st.MaxBatch,
			st.Arrivals, st.Admitted, st.Departures, st.Leaves, st.Joins, st.Resolves)
	}

	sb.WriteString("\n" + fs.RenderTenants())
	if fs.Catalog != nil {
		sb.WriteString("\n" + fs.Catalog.Render())
	}
	return sb.String()
}

// plural returns "s" unless n is 1.
func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// RenderTenants returns only the per-tenant table. Unlike the shard
// table it is invariant under the shard count, so it is the right
// artifact for cross-configuration determinism checks.
func (fs *FleetSnapshot) RenderTenants() string {
	var sb strings.Builder
	sb.WriteString("tenant  policy                   utility  offered  admitted  active  pairs  feasible\n")
	for i, ts := range fs.Tenants {
		fmt.Fprintf(&sb, "%6d  %-22s  %7.3f  %7d  %8d  %6d  %5d  %v\n",
			i, ts.Policy, ts.Utility, ts.StreamsOffered, ts.StreamsAdmitted,
			ts.ActiveStreams, ts.Pairs, ts.Feasible)
	}
	return sb.String()
}
