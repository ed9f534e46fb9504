package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/mmd"
)

// Workload is a deterministic synthetic event schedule for a cluster:
// every tenant replays its catalog in a seeded random order, with
// optional stream departures and gateway churn interleaved. Each tenant
// draws from its own RNG (derived from Seed and the tenant index), so
// the event sequence — and therefore every per-tenant result — is a
// pure function of the seed, independent of shard count, GOMAXPROCS,
// and scheduling.
type Workload struct {
	// Seed drives all randomness.
	Seed int64
	// Rounds replays each tenant's catalog this many times (default 1).
	// With departures enabled, later rounds re-admit freed streams.
	Rounds int
	// DepartEvery injects, after every k-th arrival, the departure of
	// the oldest still-carried offer (0 disables departures).
	DepartEvery int
	// ChurnEvery injects a gateway leave (or the matching rejoin) after
	// every k-th arrival (0 disables gateway churn).
	ChurnEvery int
}

// Events generates tenant ti's event sequence. Exposed so tests can
// replay the exact schedule a RunWorkload call submitted.
func (w Workload) Events(c *Cluster, ti int) []Event {
	return w.EventsForInstance(c.tenants[ti].Instance(), ti)
}

// EventsForInstance generates tenant ti's event sequence from the
// tenant's instance alone — no live cluster needed, so remote load
// drivers (mmdserve -stream) can derive the exact schedule a local
// RunWorkload would submit and pipe it over the wire.
func (w Workload) EventsForInstance(in *mmd.Instance, ti int) []Event {
	rounds := w.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(w.Seed + int64(ti)*1_000_003 + 1))
	var evs []Event
	arrivals := 0
	var carried []int // offered streams, oldest first, for departures
	var away []int    // gateways currently away, oldest first
	for round := 0; round < rounds; round++ {
		for _, s := range rng.Perm(in.NumStreams()) {
			evs = append(evs, Event{Tenant: ti, Type: EventStreamArrival, Stream: s})
			arrivals++
			carried = append(carried, s)
			if w.DepartEvery > 0 && arrivals%w.DepartEvery == 0 {
				d := carried[0]
				carried = carried[1:]
				evs = append(evs, Event{Tenant: ti, Type: EventStreamDeparture, Stream: d})
			}
			if w.ChurnEvery > 0 && arrivals%w.ChurnEvery == 0 {
				if len(away) > 0 {
					u := away[0]
					away = away[1:]
					evs = append(evs, Event{Tenant: ti, Type: EventUserJoin, User: u})
				} else if in.NumUsers() > 0 {
					u := rng.Intn(in.NumUsers())
					away = append(away, u)
					evs = append(evs, Event{Tenant: ti, Type: EventUserLeave, User: u})
				}
			}
		}
	}
	return evs
}

// RunWorkload generates every tenant's schedule and submits the events
// round-robin across tenants (interleaving tenants within each shard's
// queue, which is what exercises batching), then waits for all shards
// to drain via a snapshot barrier. It returns the quiesced fleet
// snapshot and the total number of events submitted.
//
// Replay is fire-and-forget: events are enqueued without in-flight
// entries, so consecutive arrivals on a shard count as admission
// windows of up to Options.BatchSize, and the snapshot is the only
// synchronization point. The replay always blocks on a full
// shard queue (backpressure by blocking, regardless of
// Options.Backpressure) so a deterministic schedule is never dropped.
func (c *Cluster) RunWorkload(w Workload) (*FleetSnapshot, int, error) {
	seqs := make([][]Event, len(c.tenants))
	for ti := range c.tenants {
		seqs[ti] = w.Events(c, ti)
	}
	total := 0
	for i := 0; ; i++ {
		any := false
		for ti := range seqs {
			if i < len(seqs[ti]) {
				if err := c.post(seqs[ti][i]); err != nil {
					return nil, total, fmt.Errorf("cluster: workload: %w", err)
				}
				total++
				any = true
			}
		}
		if !any {
			break
		}
	}
	fs, err := c.Snapshot()
	if err != nil {
		return nil, total, err
	}
	return fs, total, nil
}

// post enqueues one event fire-and-forget, always blocking when the
// shard queue is full. Results are observed via Snapshot.
func (c *Cluster) post(ev Event) error {
	if ev.Tenant < 0 || ev.Tenant >= len(c.tenants) {
		return fmt.Errorf("%w: tenant %d out of range [0,%d)", ErrUnknownTenant, ev.Tenant, len(c.tenants))
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	c.shards[c.shardOf[ev.Tenant]].ch <- message{ev: ev}
	return nil
}
