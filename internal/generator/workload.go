package generator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// EventType names one timed workload action. The values deliberately
// match the serving wire vocabulary (streamclient.Event.Type) so
// conversion at the serving layer is a string copy, but the generator
// stays below the serving stack: it imports nothing above the solver
// layer and emits this neutral form only.
type EventType string

// The workload event vocabulary.
const (
	EventOffer         EventType = "offer"
	EventDepart        EventType = "depart"
	EventCatalogOffer  EventType = "catalog-offer"
	EventCatalogDepart EventType = "catalog-depart"
	EventLeave         EventType = "leave"
	EventJoin          EventType = "join"
)

// Event is one timed workload action in wire-neutral form: what happens
// (Type), to whom (Tenant, and Stream/CatalogID/User depending on the
// type), and when in virtual time (At, seconds). A schedule is a slice
// sorted by At with ties broken by construction order, so applying it
// serially is deterministic.
type Event struct {
	// At is the virtual time of the action in seconds.
	At float64
	// Tenant is the target tenant index.
	Tenant int
	// Type selects the action.
	Type EventType
	// Stream is the stream index (offer/depart).
	Stream int
	// CatalogID is the fleet-wide identity (catalog-offer/-depart).
	CatalogID string
	// User is the gateway index (leave/join).
	User int
}

// Merge merges schedules into one, ordered by At; among simultaneous
// events the input order (earlier slice first, then slice order) is
// preserved, so merging is itself deterministic.
func Merge(seqs ...[]Event) []Event {
	var out []Event
	for _, s := range seqs {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ZipfFlashCrowd generates production-shaped catalog traffic: channel
// popularity is Zipf-distributed (a few channels wanted by almost every
// tenant, a long tail by few), held streams expire after a few rounds,
// and one scheduled flash crowd — a live event — makes a single
// CatalogID spike across most of the fleet at once. That spike is the
// SharedOrigin sweet spot and a refcount/eviction stress: the crowd
// channel is excluded from background sampling, so its catalog entry
// has exactly one occupancy cycle (refs 0 → crowd size → 0) and its
// eviction must fire exactly once. The schedule drains itself: every
// offered stream is departed by the end, so a correct registry settles
// at zero references with no external audit.
type ZipfFlashCrowd struct {
	// Tenants and Channels are the fleet dimensions; Gateways bounds
	// the User index space (reserved for merged churn schedules).
	Tenants, Channels, Gateways int
	// Seed drives all randomness.
	Seed int64
	// ZipfS is the popularity exponent (default 1.1).
	ZipfS float64
	// Rounds is the number of background rounds (default 3), one per
	// virtual second.
	Rounds int
	// HoldRounds is how many rounds a background stream is held before
	// its departure is scheduled (default 2).
	HoldRounds int
	// CrowdChannel is the channel that spikes (default 0). Crowd
	// traffic is always catalog traffic, whatever the channel index.
	CrowdChannel int
	// CrowdTenants is how many tenants join the crowd (default 90% of
	// the fleet, at least 2 when the fleet allows).
	CrowdTenants int
	// CrowdAt is the virtual time of the spike (default mid-schedule);
	// the crowd departs together half a second later.
	CrowdAt float64
	// IDFormat renders a channel index as a CatalogID (default
	// "ch-%03d", the catalog.IdentityBindings convention).
	IDFormat string
}

func (c ZipfFlashCrowd) withDefaults() ZipfFlashCrowd {
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.HoldRounds == 0 {
		c.HoldRounds = 2
	}
	if c.CrowdTenants == 0 {
		c.CrowdTenants = (c.Tenants*9 + 9) / 10
		if c.CrowdTenants < 2 && c.Tenants >= 2 {
			c.CrowdTenants = 2
		}
	}
	if c.CrowdAt == 0 {
		c.CrowdAt = float64(c.Rounds)/2 + 0.25
	}
	if c.IDFormat == "" {
		c.IDFormat = "ch-%03d"
	}
	return c
}

// CrowdID returns the CatalogID that spikes — the identity E16's
// refcount and eviction assertions watch.
func (c ZipfFlashCrowd) CrowdID() string {
	c = c.withDefaults()
	return fmt.Sprintf(c.IDFormat, c.CrowdChannel)
}

// channelEvent routes a channel to the catalog surface or the plain
// per-tenant surface — the e15 drill mix: every third channel stays
// tenant-local, the rest are fleet-identified.
func (c ZipfFlashCrowd) channelEvent(tenant, ch int, typ EventType, at float64) Event {
	if ch%3 == 1 {
		return Event{At: at, Tenant: tenant, Type: typ, Stream: ch}
	}
	if typ == EventOffer {
		typ = EventCatalogOffer
	} else {
		typ = EventCatalogDepart
	}
	return Event{At: at, Tenant: tenant, Type: typ, CatalogID: fmt.Sprintf(c.IDFormat, ch)}
}

// Generate builds the schedule. Same seed, same byte-identical event
// sequence: all randomness flows through the seed, and emission order
// (round, then tenant, then channel, ascending) is fixed.
func (c ZipfFlashCrowd) Generate() ([]Event, error) {
	c = c.withDefaults()
	if c.Tenants < 1 || c.Channels < 2 {
		return nil, fmt.Errorf("generator: zipf flash crowd needs >= 1 tenant and >= 2 channels; got %d, %d", c.Tenants, c.Channels)
	}
	if c.CrowdChannel < 0 || c.CrowdChannel >= c.Channels {
		return nil, fmt.Errorf("generator: crowd channel %d out of range [0,%d)", c.CrowdChannel, c.Channels)
	}
	if c.CrowdTenants > c.Tenants {
		return nil, fmt.Errorf("generator: crowd of %d tenants exceeds the fleet of %d", c.CrowdTenants, c.Tenants)
	}
	rng := rand.New(rand.NewSource(c.Seed))

	ranks := rng.Perm(c.Channels)
	prob := make([]float64, c.Channels)
	for s := range prob {
		prob[s] = math.Min(1, 1.6/math.Pow(float64(ranks[s]+1), c.ZipfS))
	}
	crowd := append([]int(nil), rng.Perm(c.Tenants)[:c.CrowdTenants]...)
	sort.Ints(crowd)

	var out []Event
	// held maps (tenant, channel) to the round its departure fires.
	held := make(map[[2]int]int)
	for r := 0; r < c.Rounds; r++ {
		at := float64(r)
		for t := 0; t < c.Tenants; t++ {
			for ch := 0; ch < c.Channels; ch++ {
				key := [2]int{t, ch}
				if exp, ok := held[key]; ok && exp == r {
					out = append(out, c.channelEvent(t, ch, EventDepart, at))
					delete(held, key)
				}
			}
		}
		for t := 0; t < c.Tenants; t++ {
			for ch := 0; ch < c.Channels; ch++ {
				if ch == c.CrowdChannel {
					continue // the crowd owns this channel exclusively
				}
				if rng.Float64() >= prob[ch] {
					continue
				}
				if _, ok := held[[2]int{t, ch}]; ok {
					continue
				}
				out = append(out, c.channelEvent(t, ch, EventOffer, at))
				held[[2]int{t, ch}] = r + c.HoldRounds
			}
		}
	}
	// The flash crowd: every crowd tenant grabs the same CatalogID at
	// once, and the whole crowd departs together — one occupancy cycle.
	id := fmt.Sprintf(c.IDFormat, c.CrowdChannel)
	for _, t := range crowd {
		out = append(out, Event{At: c.CrowdAt, Tenant: t, Type: EventCatalogOffer, CatalogID: id})
	}
	for _, t := range crowd {
		out = append(out, Event{At: c.CrowdAt + 0.5, Tenant: t, Type: EventCatalogDepart, CatalogID: id})
	}
	// Final drain: depart everything still held so the schedule leaves
	// zero references behind.
	drainAt := float64(c.Rounds) + 1
	for t := 0; t < c.Tenants; t++ {
		for ch := 0; ch < c.Channels; ch++ {
			if _, ok := held[[2]int{t, ch}]; ok {
				out = append(out, c.channelEvent(t, ch, EventDepart, drainAt))
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}
