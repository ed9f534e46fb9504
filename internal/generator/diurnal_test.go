package generator_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/generator"
)

// diurnalDigest hashes a schedule field by field; At prints in its
// shortest round-trip form, so equal digests mean identical events.
func diurnalDigest(events []generator.Event) string {
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%v %d %s %d %q %d\n", ev.At, ev.Tenant, ev.Type, ev.Stream, ev.CatalogID, ev.User)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDiurnalGolden pins the byte-exact schedules of three shapes:
// E16's default churn, a two-day schedule over the 8-tenant benchmark
// fleet (named after the benchmark harness that once replayed it), and
// perfbench's flash-durable churn at run seed 1 (E16 and flash-durable
// exclude the flash crowd's channel, channel 0). A change
// to the tick order, the rng draw order or the event stamping shows up
// here as a digest mismatch.
func TestDiurnalGolden(t *testing.T) {
	cases := []struct {
		name   string
		cfg    generator.Diurnal
		events int
		digest string
	}{
		{"e16-default", generator.Diurnal{Tenants: 6, Channels: 12, Gateways: 4, Seed: 162, Days: 1, HourStep: 0.25, ExcludeChannel: 0},
			144, "324bc6c83012fe4e25634dac08fb6f646265a4887185284bcfcd29ae6a060b99"},
		{"benchkit-diurnal", generator.Diurnal{Tenants: 8, Channels: 40, Gateways: 10, Seed: 401, Days: 2},
			1056, "47d9d0fc068fcdc581b847c712caaa13dcec1e21d83fa591d10e8ee6119cf621"},
		{"perfbench-flash-durable", generator.Diurnal{Tenants: 8, Channels: 40, Gateways: 10, Seed: 2, Days: 1, ExcludeChannel: 0},
			656, "95ac402159552365f663c98ad6ed2851f0ed43510c11df490bf190cd885a362d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, err := tc.cfg.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if got := diurnalDigest(events); len(events) != tc.events || got != tc.digest {
				t.Fatalf("%d events, digest %s; want %d events, digest %s", len(events), got, tc.events, tc.digest)
			}
		})
	}
}

// TestDiurnalRejectsBadConfig: tick times must be finite and must not
// run backwards, so a negative, NaN or infinite HourStep and negative
// Days are refused, as are empty fleets and targets beyond the fleet's
// dimensions.
func TestDiurnalRejectsBadConfig(t *testing.T) {
	base := generator.Diurnal{Tenants: 2, Channels: 6, Gateways: 3, Seed: 1, Days: 1}
	cases := []struct {
		name string
		edit func(*generator.Diurnal)
	}{
		{"no tenants", func(c *generator.Diurnal) { c.Tenants = 0 }},
		{"no channels", func(c *generator.Diurnal) { c.Channels = 0 }},
		{"active beyond channels", func(c *generator.Diurnal) { c.MaxActive = 7 }},
		{"away beyond gateways", func(c *generator.Diurnal) { c.MaxAway = 4 }},
		{"negative hour step", func(c *generator.Diurnal) { c.HourStep = -1 }},
		{"NaN hour step", func(c *generator.Diurnal) { c.HourStep = math.NaN() }},
		{"infinite hour step", func(c *generator.Diurnal) { c.HourStep = math.Inf(1) }},
		{"negative days", func(c *generator.Diurnal) { c.Days = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			if events, err := cfg.Generate(); err == nil {
				t.Fatalf("accepted %+v (%d events)", cfg, len(events))
			}
		})
	}
}
