package fleet

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/cluster"
)

// MergeSnapshots folds per-node snapshots into one fleet view. Every
// node runs a full cluster, so each snapshot has a row for every
// tenant; the merge takes each tenant's row from its owning node
// (the only node that received its events), sets the fleet-wide sums
// from the merged rows with the cluster barrier's own reduction
// (FleetSnapshot.SumTenants), and concatenates the nodes' shard tables
// with globally renumbered shard indexes. cat is the merged snapshot's
// catalog section: the router passes the first node snapshot's, since
// every node reports the one registry (through its wire client when the
// registry lives in the catalog service).
//
// The merged per-tenant section is the node-count-invariance artifact:
// for a deterministic submission sequence it is bit-identical to the
// 1-process cluster's, whatever the node count.
func MergeSnapshots(plan Plan, snaps []*cluster.FleetSnapshot, cat *catalog.Snapshot) (*cluster.FleetSnapshot, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if len(snaps) != plan.Nodes {
		return nil, fmt.Errorf("fleet: merge got %d snapshots for a %d-node plan", len(snaps), plan.Nodes)
	}
	tenants := -1
	for n, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("fleet: merge: node %d snapshot missing", n)
		}
		if tenants == -1 {
			tenants = len(s.Tenants)
		} else if len(s.Tenants) != tenants {
			return nil, fmt.Errorf("fleet: merge: node %d has %d tenants, node 0 has %d (fleet nodes must share options)", n, len(s.Tenants), tenants)
		}
	}
	fs := &cluster.FleetSnapshot{
		Tenants: make([]cluster.TenantSnapshot, tenants),
		Catalog: cat,
	}
	for t := 0; t < tenants; t++ {
		fs.Tenants[t] = snaps[plan.NodeOfTenant(t)].Tenants[t]
	}
	fs.SumTenants()
	for _, s := range snaps {
		offset := fs.Shards
		for _, st := range s.ShardStats {
			st.Shard += offset
			fs.ShardStats = append(fs.ShardStats, st)
		}
		fs.Shards += s.Shards
	}
	return fs, nil
}
