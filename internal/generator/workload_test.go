package generator_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/generator"
	"repro/internal/online"
)

// TestWorkloadGeneratorsDeterministic pins the subsystem's core
// contract: every workload generator is a pure function of its seed —
// same seed, byte-identical event sequence; different seed, a
// different one.
func TestWorkloadGeneratorsDeterministic(t *testing.T) {
	cases := []struct {
		name     string
		generate func(seed int64) ([]generator.Event, error)
	}{
		{"zipf-flash", func(seed int64) ([]generator.Event, error) {
			return generator.ZipfFlashCrowd{Tenants: 5, Channels: 12, Gateways: 4, Seed: seed}.Generate()
		}},
		{"diurnal", func(seed int64) ([]generator.Event, error) {
			return generator.Diurnal{Tenants: 3, Channels: 10, Gateways: 4, Seed: seed, Days: 1}.Generate()
		}},
		{"merged", func(seed int64) ([]generator.Event, error) {
			z, err := generator.ZipfFlashCrowd{Tenants: 3, Channels: 9, Gateways: 4, Seed: seed}.Generate()
			if err != nil {
				return nil, err
			}
			d, err := generator.Diurnal{Tenants: 3, Channels: 9, Gateways: 4, Seed: seed + 1, Days: 1}.Generate()
			if err != nil {
				return nil, err
			}
			return generator.Merge(z, d), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.generate(7)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) == 0 {
				t.Fatal("empty schedule")
			}
			b, err := tc.generate(7)
			if err != nil {
				t.Fatal(err)
			}
			// Byte-identical: the rendered sequences match exactly.
			if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
				t.Fatal("same seed produced different schedules")
			}
			c, err := tc.generate(8)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds produced identical schedules")
			}
			for i, ev := range a {
				if i > 0 && ev.At < a[i-1].At {
					t.Fatalf("event %d at %v before predecessor at %v", i, ev.At, a[i-1].At)
				}
			}
		})
	}
}

// TestZipfFlashCrowdShape checks the crowd contract E16 leans on: the
// crowd CatalogID appears only in the spike (never in background
// traffic), every crowd tenant offers and departs it exactly once, and
// the schedule drains itself — every offer is matched by a departure.
func TestZipfFlashCrowdShape(t *testing.T) {
	cfg := generator.ZipfFlashCrowd{Tenants: 6, Channels: 12, Gateways: 4, Seed: 11, Rounds: 4}
	events, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	crowd := cfg.CrowdID()
	offers := make(map[string]int) // key: tenant/surface/identity
	crowdOffers, crowdDeparts := 0, 0
	for _, ev := range events {
		var key string
		delta := 0
		switch ev.Type {
		case generator.EventOffer:
			key, delta = fmt.Sprintf("%d/s/%d", ev.Tenant, ev.Stream), 1
		case generator.EventDepart:
			key, delta = fmt.Sprintf("%d/s/%d", ev.Tenant, ev.Stream), -1
		case generator.EventCatalogOffer:
			key, delta = fmt.Sprintf("%d/c/%s", ev.Tenant, ev.CatalogID), 1
			if ev.CatalogID == crowd {
				crowdOffers++
			}
		case generator.EventCatalogDepart:
			key, delta = fmt.Sprintf("%d/c/%s", ev.Tenant, ev.CatalogID), -1
			if ev.CatalogID == crowd {
				crowdDeparts++
			}
		default:
			t.Fatalf("unexpected event type %q in stream-only schedule", ev.Type)
		}
		offers[key] += delta
		if offers[key] < 0 || offers[key] > 1 {
			t.Fatalf("unbalanced holding %q: count %d", key, offers[key])
		}
	}
	wantCrowd := (cfg.Tenants*9 + 9) / 10
	if crowdOffers != wantCrowd || crowdDeparts != wantCrowd {
		t.Fatalf("crowd offers/departs = %d/%d, want %d each", crowdOffers, crowdDeparts, wantCrowd)
	}
	for key, n := range offers {
		if n != 0 {
			t.Fatalf("schedule did not drain: %q left held", key)
		}
	}
}

// TestDiurnalShape checks the churn contract: leave/join pairs are
// presence-consistent per (tenant, gateway), indices stay in range, the
// hourly ticks span the virtual days, and the schedule drains — no
// stream held and no gateway away at the end.
func TestDiurnalShape(t *testing.T) {
	cfg := generator.Diurnal{Tenants: 4, Channels: 9, Gateways: 5, Seed: 13, Days: 2}
	events, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	held := make(map[string]bool)
	away := make(map[string]bool)
	last := 0.0
	for _, ev := range events {
		if ev.At < last {
			t.Fatalf("time went backwards: %v after %v", ev.At, last)
		}
		last = ev.At
		if ev.Tenant < 0 || ev.Tenant >= cfg.Tenants {
			t.Fatalf("tenant %d out of range", ev.Tenant)
		}
		switch ev.Type {
		case generator.EventOffer, generator.EventDepart:
			if ev.Stream < 0 || ev.Stream >= cfg.Channels {
				t.Fatalf("stream %d out of range", ev.Stream)
			}
			key := fmt.Sprintf("%d/s/%d", ev.Tenant, ev.Stream)
			want := ev.Type == generator.EventDepart
			if held[key] != want {
				t.Fatalf("%s of %q while held=%v", ev.Type, key, held[key])
			}
			held[key] = !want
		case generator.EventCatalogOffer, generator.EventCatalogDepart:
			key := fmt.Sprintf("%d/c/%s", ev.Tenant, ev.CatalogID)
			want := ev.Type == generator.EventCatalogDepart
			if held[key] != want {
				t.Fatalf("%s of %q while held=%v", ev.Type, key, held[key])
			}
			held[key] = !want
		case generator.EventLeave, generator.EventJoin:
			if ev.User < 0 || ev.User >= cfg.Gateways {
				t.Fatalf("user %d out of range", ev.User)
			}
			key := fmt.Sprintf("%d/u/%d", ev.Tenant, ev.User)
			want := ev.Type == generator.EventJoin
			if away[key] != want {
				t.Fatalf("%s of %q while away=%v", ev.Type, key, away[key])
			}
			away[key] = !want
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	if last < float64(cfg.Days*24) {
		t.Fatalf("schedule ends at %v, want the full %d virtual hours", last, cfg.Days*24)
	}
	for key, h := range held {
		if h {
			t.Fatalf("stream %q still held at end", key)
		}
	}
	for key, a := range away {
		if a {
			t.Fatalf("gateway %q still away at end", key)
		}
	}
}

// TestLargeStreamsRegimeFlip pins the design that makes E17's sweep
// meaningful: SizeFraction directly controls the small-streams regime
// because online.Normalize preserves cost-to-budget ratios. A small
// fraction passes CheckSmallStreams; a near-budget fraction fails it.
func TestLargeStreamsRegimeFlip(t *testing.T) {
	check := func(fraction float64) error {
		in, err := generator.LargeStreams{Streams: 8, Users: 3, Seed: 17, SizeFraction: fraction}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		norm, err := online.Normalize(in)
		if err != nil {
			t.Fatal(err)
		}
		return online.CheckSmallStreams(norm.Instance, norm.Mu())
	}
	if err := check(0.05); err != nil {
		t.Fatalf("fraction 0.05 should be in-regime: %v", err)
	}
	if check(0.95) == nil {
		t.Fatal("fraction 0.95 should violate the small-streams hypothesis")
	}
}

// TestLargeStreamsDeterministicAndBounded: pure function of the seed,
// and the pinned maximum cost is exactly SizeFraction of the budget.
func TestLargeStreamsDeterministicAndBounded(t *testing.T) {
	cfg := generator.LargeStreams{Streams: 6, Users: 2, Seed: 23, SizeFraction: 0.4}
	a, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different instances")
	}
	maxCost := 0.0
	for _, s := range a.Streams {
		if s.Costs[0] > maxCost {
			maxCost = s.Costs[0]
		}
		if s.Costs[0] < cfg.SizeFraction*(1-0.1)-1e-12 {
			t.Fatalf("stream cost %v fell below the jitter floor", s.Costs[0])
		}
	}
	if maxCost != cfg.SizeFraction {
		t.Fatalf("max cost %v, want exactly %v", maxCost, cfg.SizeFraction)
	}
	if _, err := (generator.LargeStreams{Streams: 2, Users: 1, SizeFraction: 1.5}).Generate(); err == nil {
		t.Fatal("accepted size fraction > 1")
	}
	if _, err := (generator.LargeStreams{Streams: 2, Users: 1, SizeFraction: 0}).Generate(); err == nil {
		t.Fatal("accepted zero size fraction")
	}
}

// TestMergePreservesOrder: Merge sorts by At and keeps input order
// among simultaneous events, so merged schedules are deterministic.
func TestMergePreservesOrder(t *testing.T) {
	a := []generator.Event{
		{At: 0, Tenant: 0, Type: generator.EventOffer, Stream: 1},
		{At: 2, Tenant: 0, Type: generator.EventDepart, Stream: 1},
	}
	b := []generator.Event{
		{At: 0, Tenant: 1, Type: generator.EventOffer, Stream: 2},
		{At: 1, Tenant: 1, Type: generator.EventDepart, Stream: 2},
	}
	got := generator.Merge(a, b)
	want := []generator.Event{a[0], b[0], b[1], a[1]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order wrong:\n got %v\nwant %v", got, want)
	}
}
