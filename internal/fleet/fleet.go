// Package fleet is the multi-process tier of the serving stack
// (serving API v7): a router that fans streaming ingestion sessions
// out across node processes and merges their snapshots back into one
// fleet view.
//
// The fleet splits the single-process cluster along its existing
// ownership seams. Each node process runs a full cluster (every tenant
// instantiated from the same options) but receives only the events of
// the tenants it owns; the catalog registry moves to its own process
// (internal/catalog/remote), so cross-node admissions still settle
// against one owner in one order. The router owns only transport
// state — client watermarks and per-node upstream sessions — and NEVER
// assignment state: no tenant tables, no refcounts, no feasibility
// ledgers. If the router dies, a new one pointed at the same nodes
// resumes service with nothing to recover.
//
// Routing is tenant → logical shard (tenant % Plan.Shards, the same
// pinning rule the cluster uses) → node (contiguous shard ranges).
// The plan's shard modulus is fixed at router startup and is routing
// state only: a live reshard (proxied to every node) changes each
// node's internal layout, which is safe precisely because per-tenant
// results are invariant under the shard count — the same invariance
// that pins the fleet's north-star property, that an N-node fleet
// lands bit-identical per-tenant snapshots to the 1-process cluster
// (node-count invariance, TestFleetMatchesSingleProcess).
package fleet

import "fmt"

// Plan maps tenants to nodes: tenant → logical shard (tenant %
// Shards) → node (contiguous shard ranges, node k owning shards
// [k·S/N, (k+1)·S/N)). Shards is the routing modulus pinned at router
// startup — it need not match any node's internal shard count, and a
// live reshard does not move tenants between nodes. More nodes than
// shards leaves the surplus nodes idle (their empty ranges own no
// tenants) — a degenerate but valid fleet, and the node-count
// invariance still holds.
type Plan struct {
	// Nodes is the node count; Shards the logical shard count (the
	// routing modulus).
	Nodes, Shards int
}

// Validate reports a usable plan.
func (p Plan) Validate() error {
	if p.Nodes <= 0 {
		return fmt.Errorf("fleet: plan needs at least one node, got %d", p.Nodes)
	}
	if p.Shards <= 0 {
		return fmt.Errorf("fleet: plan needs at least one shard, got %d", p.Shards)
	}
	return nil
}

// NodeOfShard returns the node owning logical shard s.
func (p Plan) NodeOfShard(s int) int {
	// Inverse of the contiguous split [k·S/N, (k+1)·S/N).
	return (s*p.Nodes + p.Nodes - 1) / p.Shards
}

// NodeOfTenant returns the node owning tenant t's events. Tenants the
// cluster would reject (negative) route to node 0, whose cluster
// produces the per-event error.
func (p Plan) NodeOfTenant(t int) int {
	if t < 0 {
		return 0
	}
	return p.NodeOfShard(t % p.Shards)
}
