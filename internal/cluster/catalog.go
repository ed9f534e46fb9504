package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
)

// Serving API v3: cross-shard shared streams.
//
// OfferCatalogStream and DepartCatalogStream are the fleet-identity
// siblings of OfferStream/DepartStream: the stream is named by its
// catalog.ID rather than a per-tenant local index, the admission is
// priced by the catalog's cost model from the cross-shard reference
// count, and the result reports who else carries the stream and what
// was charged. Like every session method they are projections of the
// one request path (Apply → route, see stream.go), which runs the
// catalog package's three-step protocol: the caller Acquires (pricing +
// a provisional reference), the event is routed to the tenant's shard,
// and the worker settles the reference (Commit on admit, Release on
// reject or removal) after applying the event and before its result
// goes out — so registry transitions happen in shard FIFO order and
// concurrent same-tenant calls can never desynchronize refcounts from
// the tenant's carried set. Refcounts live in the registry, behind its
// own lock, and tenant state with the shard worker; the worker's
// settlement is one registry call (one round trip when the registry is
// remote), and the registry never calls back into shards.
//
// Departing a catalog-managed stream through the local-index
// DepartStream is equivalent to DepartCatalogStream: the shard worker
// resolves the local index back to its fleet ID and releases the held
// reference in the same FIFO settlement, so reference counts track
// carriage no matter which surface the departure came through. (Offers
// are not symmetric: a local-index OfferStream admits outside the
// catalog and takes no fleet reference — fleet identity is granted only
// by the catalog's own acquire protocol.)

// Sentinel errors of the catalog session surface; match with errors.Is.
var (
	// ErrNoCatalog reports a catalog call on a cluster built without
	// Options.Catalog.
	ErrNoCatalog = errors.New("cluster: no catalog configured")
	// ErrUnknownCatalogStream reports an ID the catalog does not know,
	// or one the tenant has no binding for. It also matches the
	// underlying catalog.ErrUnknownID / catalog.ErrNotBound.
	ErrUnknownCatalogStream = errors.New("cluster: unknown catalog stream")
)

// CatalogResult is the typed outcome of a catalog offer or departure.
type CatalogResult struct {
	// Admitted reports whether the tenant now carries the stream (offer
	// path); Removed whether it stopped carrying it (depart path).
	Admitted bool `json:"admitted,omitempty"`
	Removed  bool `json:"removed,omitempty"`
	// Subscribers are the users receiving (offer) or released from
	// (depart) the stream; Utility is the utility added by an admission.
	Subscribers []int   `json:"subscribers,omitempty"`
	Utility     float64 `json:"utility,omitempty"`
	// Refs is the confirmed cross-shard reference count after the call.
	Refs int `json:"refs"`
	// SharedWith lists the other tenants confirmed to carry the stream
	// at decision time (ascending tenant index).
	SharedWith []int `json:"shared_with,omitempty"`
	// CostScale is the server-cost scale the admission was priced at;
	// FullCost the undiscounted scalar server cost of the stream;
	// CostCharged the scaled cost actually charged (offer path, when
	// admitted).
	CostScale   float64 `json:"cost_scale,omitempty"`
	FullCost    float64 `json:"full_cost,omitempty"`
	CostCharged float64 `json:"cost_charged,omitempty"`
	// Evicted reports that this departure was the last reference and
	// released the origin (depart path).
	Evicted bool `json:"evicted,omitempty"`
}

// OfferCatalogStream offers the fleet-identified stream id to tenant t:
// the catalog prices the admission from the current cross-shard
// reference count (first admitting tenant pays the full origin cost;
// under SharedOrigin later tenants pay the replication fraction), the
// tenant's policy decides at that price on its shard worker — guarded
// admission asks its feasibility ledger with the discounted delta — and
// a successful admission takes a fleet reference. A rejection (policy
// "no", or the tenant already carries the stream) is a successful call
// with Admitted false, mirroring OfferStream.
func (c *Cluster) OfferCatalogStream(ctx context.Context, tenant int, id catalog.ID) (CatalogResult, error) {
	return c.catalogCall(ctx, Event{Tenant: tenant, Type: EventStreamArrival, CatalogID: id})
}

// DepartCatalogStream departs the fleet-identified stream id from
// tenant t, releasing its fleet reference; the last departure evicts
// the stream's origin (Evicted). Departing a stream the tenant does not
// carry is a successful call with Removed false, mirroring
// DepartStream — but a fleet reference the tenant still holds is
// released even then, so a by-ID departure always cleans up.
func (c *Cluster) DepartCatalogStream(ctx context.Context, tenant int, id catalog.ID) (CatalogResult, error) {
	return c.catalogCall(ctx, Event{Tenant: tenant, Type: EventStreamDeparture, CatalogID: id})
}

// catalogCall is Apply for a by-ID event. An empty ID would route as a
// plain local-index event, so it is refused here as the unknown ID it
// is, after the same tenant and catalog checks route makes.
func (c *Cluster) catalogCall(ctx context.Context, ev Event) (CatalogResult, error) {
	if ev.CatalogID == "" {
		c.mu.RLock()
		_, err := c.catalogFor(ev.Tenant)
		c.mu.RUnlock()
		if err == nil {
			err = wrapCatalogErr(fmt.Errorf("%w: %q", catalog.ErrUnknownID, ev.CatalogID))
		}
		return CatalogResult{}, err
	}
	res, err := c.Apply(ctx, ev)
	return res.Catalog, err
}

// CatalogSnapshot returns the registry state on demand (the same
// section Snapshot embeds), without a shard barrier.
func (c *Cluster) CatalogSnapshot() (*catalog.Snapshot, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.catalog == nil {
		return nil, ErrNoCatalog
	}
	return c.catalog.Snapshot(), nil
}

// catalogLocal pairs a fleet stream identity with its local index at
// one tenant (the per-tenant view of a catalog.Binding).
type catalogLocal struct {
	id    catalog.ID
	local int
}

// catalogFor validates the tenant index and the presence of a catalog.
func (c *Cluster) catalogFor(tenant int) (catalog.Service, error) {
	if tenant < 0 || tenant >= len(c.tenants) {
		return nil, fmt.Errorf("%w: tenant %d out of range [0,%d)", ErrUnknownTenant, tenant, len(c.tenants))
	}
	if c.catalog == nil {
		return nil, ErrNoCatalog
	}
	return c.catalog, nil
}

// catalogIndex checks a catalog event in route's order — the tenant,
// then the catalog, then the tenant's binding of id — and returns the
// tenant's local index of id from the cluster's own binding table, so
// the answer costs no registry call. route uses it for a departure (an
// arrival's binding comes back on its ticket), ApplyBatch for every
// catalog event.
func (c *Cluster) catalogIndex(tenant int, id catalog.ID) (int, error) {
	if _, err := c.catalogFor(tenant); err != nil {
		return 0, err
	}
	local, err := c.catalogBindings.Lookup(id, tenant)
	if err != nil {
		return 0, wrapCatalogErr(err)
	}
	return local, nil
}

// wrapCatalogErr maps registry errors onto the cluster sentinel while
// keeping the original in the chain.
func wrapCatalogErr(err error) error {
	if errors.Is(err, catalog.ErrUnknownID) || errors.Is(err, catalog.ErrNotBound) {
		return fmt.Errorf("%w: %w", ErrUnknownCatalogStream, err)
	}
	if errors.Is(err, catalog.ErrClosed) {
		return ErrClosed
	}
	return err
}
