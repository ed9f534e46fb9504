package cluster

// Pool-discipline tests: the serving hot path recycles in-flight
// entries through sync.Pool / free lists, and the ownership rule says
// an entry is recycled only after its one delivery was consumed. These
// tests install the poison hook —
// which scribble garbage into an entry the instant it is recycled and
// assert its delivery was consumed — and then drive the concurrent
// paths hard. Any read-after-recycle surfaces deterministically as a
// poisoned result header, and as a write/read data race under -race.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
)

// installPoison arms the recycle hook for the duration of one test.
// The hook fails the test on an entry recycled before its one
// completion was consumed (a stream entry not yet marked ready, or a
// result still buffered in a session entry's own channel) and
// scrambles recycled entries so any stale read shows up as a corrupt
// header.
func installPoison(t *testing.T) *atomic.Int64 {
	t.Helper()
	var recycled atomic.Int64
	poisonRecycled = func(p *streamPending) {
		recycled.Add(1)
		// A session call's entry owns a one-slot channel; a stream
		// entry shares its connection's, whose capacity is at least 2.
		if cap(p.done) == 1 && len(p.done) > 0 {
			t.Error("recycled call entry still had a buffered delivery")
		}
		if cap(p.done) > 1 && !p.ready {
			t.Error("recycled stream entry before its completion was consumed")
		}
		p.seq = -1 << 30
		p.typ = EventType(0x7f)
		p.id = "poisoned"
		p.tk = catalog.Ticket{Scale: -1, Local: -1}
		p.fullCost = -1
		p.res = result{refs: -1}
	}
	t.Cleanup(func() {
		poisonRecycled = nil
	})
	return &recycled
}

// TestPooledAcksNeverReadAfterRecycle drives the pooled session, batch,
// and snapshot paths concurrently with poison armed: every completion
// channel must be drained before it returns to the pool.
func TestPooledAcksNeverReadAfterRecycle(t *testing.T) {
	recycled := installPoison(t)
	c := catalogTestFleet(t, 4, 12, 5, 977, 0.3, 2, catalog.SharedOrigin{ReplicationFraction: 0.25})
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := w % 4
			for i := 0; i < 60; i++ {
				id := catalog.ID(fmt.Sprintf("s-%03d", i%12))
				switch i % 4 {
				case 0:
					if _, err := c.OfferCatalogStream(ctx, tenant, id); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.DepartCatalogStream(ctx, tenant, id); err != nil {
						t.Error(err)
						return
					}
				case 2:
					batch := []Event{
						{Type: EventStreamArrival, CatalogID: id},
						{Type: EventUserLeave, User: i % 5},
						{Type: EventUserJoin, User: i % 5},
						{Type: EventStreamDeparture, CatalogID: id},
					}
					if _, err := c.ApplyBatch(ctx, tenant, batch); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := c.Snapshot(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if recycled.Load() == 0 {
		t.Fatal("poison hooks never fired: pooling is not exercised")
	}
}

// TestPooledStreamEntriesNeverReadAfterRecycle runs concurrent
// submitter/receiver pairs over pipelined streams with poison armed:
// recycled entries are scrambled the instant they hit the free list, so
// a Submit reusing an entry whose previous result is still being read —
// or a receiver touching an entry after recycling it — corrupts a
// visible result header and trips -race.
func TestPooledStreamEntriesNeverReadAfterRecycle(t *testing.T) {
	recycled := installPoison(t)
	c := catalogTestFleet(t, 2, 12, 5, 978, 0.3, 2, catalog.SharedOrigin{ReplicationFraction: 0.25})
	ctx := context.Background()

	var wg sync.WaitGroup
	for tenant := 0; tenant < 2; tenant++ {
		sc, err := c.OpenStream(StreamOptions{Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		const steps = 200
		go func(sc *StreamConn, tenant int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				ev := Event{Tenant: tenant, Type: EventStreamArrival,
					CatalogID: catalog.ID(fmt.Sprintf("s-%03d", i%12))}
				if i%3 == 2 {
					ev.Type = EventStreamDeparture
				}
				if err := sc.Submit(ctx, ev); err != nil {
					t.Error(err)
					break
				}
			}
			sc.CloseSend()
		}(sc, tenant)
		go func(sc *StreamConn) {
			defer wg.Done()
			for i := 0; ; i++ {
				res, err := sc.Recv(ctx)
				if err != nil {
					return // io.EOF after CloseSend drains
				}
				if res.Seq != i {
					t.Errorf("result %d: seq %d (poisoned or reordered entry)", i, res.Seq)
					return
				}
				if res.Type != EventStreamArrival && res.Type != EventStreamDeparture {
					t.Errorf("result %d: poisoned type %d", i, res.Type)
					return
				}
				if res.CatalogID == "poisoned" || res.Catalog.CostScale < 0 {
					t.Errorf("result %d: poisoned payload %+v", i, res)
					return
				}
			}
		}(sc)
	}
	wg.Wait()
	if recycled.Load() == 0 {
		t.Fatal("poison hooks never fired: recycling is not exercised")
	}
}
