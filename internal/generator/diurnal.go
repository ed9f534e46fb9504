package generator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Diurnal generates day/night churn: one tick per virtual hour, in
// hour order, and each tick steers every tenant toward an activity
// target that follows a sinusoidal daily curve (peak at 20:00, trough
// at 08:00). By day, tenants offer more streams and offline gateways
// rejoin; by night, streams depart (oldest first) and gateways go
// offline. Stream and gateway identities are sampled from the seeded
// rng; every event of a tick is stamped with the tick's virtual time,
// hour × HourStep.
//
// Diurnal owns the leave/join vocabulary in a merged schedule: it
// tracks per-tenant gateway presence so it never leaves an absent user
// or joins a present one, which keeps merged schedules safe to apply
// against the idempotent session API.
type Diurnal struct {
	// Tenants, Channels, Gateways are the fleet dimensions.
	Tenants, Channels, Gateways int
	// Seed drives all randomness.
	Seed int64
	// Days is the number of 24-hour cycles (default 2); a negative
	// count is refused.
	Days int
	// HourStep is virtual seconds per hour (default 1); a negative,
	// NaN or infinite step is refused.
	HourStep float64
	// MaxActive is the peak number of concurrently held streams per
	// tenant (default Channels/2).
	MaxActive int
	// MaxAway is the overnight maximum of offline gateways per tenant
	// (default Gateways/2).
	MaxAway int
	// ExcludeChannel removes one channel from sampling (set it to a
	// flash crowd's channel when merging schedules); -1 or out of
	// range excludes nothing. Note the zero value excludes channel 0.
	ExcludeChannel int
	// IDFormat renders a channel index as a CatalogID (default
	// "ch-%03d").
	IDFormat string
}

func (c Diurnal) withDefaults() Diurnal {
	if c.Days == 0 {
		c.Days = 2
	}
	if c.HourStep == 0 {
		c.HourStep = 1
	}
	if c.MaxActive == 0 {
		c.MaxActive = c.Channels / 2
	}
	if c.MaxAway == 0 {
		c.MaxAway = c.Gateways / 2
	}
	if c.IDFormat == "" {
		c.IDFormat = "ch-%03d"
	}
	return c
}

// activity is the daily curve: 0 at 08:00, 1 at 20:00.
func activity(hour int) float64 {
	return (1 - math.Cos(2*math.Pi*float64(hour%24-8)/24)) / 2
}

// diurnalTenant is the per-tenant churn state the hourly ticks steer.
type diurnalTenant struct {
	active []int // held channels, oldest first
	away   []int // offline gateways, ascending
}

// Generate runs the day/night ticks to completion and returns the
// schedule. Same seed ⇒ byte-identical event sequence.
func (c Diurnal) Generate() ([]Event, error) {
	c = c.withDefaults()
	if c.Tenants < 1 || c.Channels < 1 || c.Gateways < 1 {
		return nil, fmt.Errorf("generator: diurnal needs >= 1 tenant, channel, and gateway; got %d, %d, %d", c.Tenants, c.Channels, c.Gateways)
	}
	if c.MaxActive > c.Channels || c.MaxAway > c.Gateways {
		return nil, fmt.Errorf("generator: diurnal targets exceed fleet dimensions")
	}
	// Tick times must not run backwards: hour × HourStep is
	// non-decreasing only for a non-negative step, and the drain tick
	// at Days × 24 hours must not precede hour 0.
	if c.HourStep < 0 || math.IsNaN(c.HourStep) || math.IsInf(c.HourStep, 1) || c.Days < 0 {
		return nil, fmt.Errorf("generator: diurnal needs a finite HourStep >= 0 and Days >= 0; got %v, %d", c.HourStep, c.Days)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	tenants := make([]diurnalTenant, c.Tenants)
	var out []Event

	channelOffer := func(t, ch int, at float64) Event {
		if ch%3 == 1 {
			return Event{At: at, Tenant: t, Type: EventOffer, Stream: ch}
		}
		return Event{At: at, Tenant: t, Type: EventCatalogOffer, CatalogID: fmt.Sprintf(c.IDFormat, ch)}
	}
	channelDepart := func(t, ch int, at float64) Event {
		if ch%3 == 1 {
			return Event{At: at, Tenant: t, Type: EventDepart, Stream: ch}
		}
		return Event{At: at, Tenant: t, Type: EventCatalogDepart, CatalogID: fmt.Sprintf(c.IDFormat, ch)}
	}

	tick := func(hour int) {
		at := float64(hour) * c.HourStep
		a := activity(hour)
		for t := range tenants {
			st := &tenants[t]
			// Streams follow the activity curve: offer up to the
			// target by day, depart oldest-first by night.
			target := int(math.Round(a * float64(c.MaxActive)))
			for len(st.active) > target {
				ch := st.active[0]
				st.active = st.active[1:]
				out = append(out, channelDepart(t, ch, at))
			}
			if len(st.active) < target {
				heldSet := make(map[int]bool, len(st.active))
				for _, ch := range st.active {
					heldSet[ch] = true
				}
				for _, ch := range rng.Perm(c.Channels) {
					if len(st.active) >= target {
						break
					}
					if ch == c.ExcludeChannel || heldSet[ch] {
						continue
					}
					heldSet[ch] = true
					st.active = append(st.active, ch)
					out = append(out, channelOffer(t, ch, at))
				}
			}
			// Gateways follow the inverse curve: more offline at night.
			targetAway := int(math.Round((1 - a) * float64(c.MaxAway)))
			for len(st.away) > targetAway {
				u := st.away[len(st.away)-1]
				st.away = st.away[:len(st.away)-1]
				out = append(out, Event{At: at, Tenant: t, Type: EventJoin, User: u})
			}
			if len(st.away) < targetAway {
				awaySet := make(map[int]bool, len(st.away))
				for _, u := range st.away {
					awaySet[u] = true
				}
				for _, u := range rng.Perm(c.Gateways) {
					if len(st.away) >= targetAway {
						break
					}
					if awaySet[u] {
						continue
					}
					st.away = append(st.away, u)
					sort.Ints(st.away)
					out = append(out, Event{At: at, Tenant: t, Type: EventLeave, User: u})
				}
			}
		}
	}

	for h := 0; h < c.Days*24; h++ {
		tick(h)
	}
	// The final tick drains: depart every held stream, rejoin every
	// offline gateway, so the schedule leaves the fleet at rest.
	at := float64(c.Days*24) * c.HourStep
	for t := range tenants {
		st := &tenants[t]
		for _, ch := range st.active {
			out = append(out, channelDepart(t, ch, at))
		}
		for _, u := range st.away {
			out = append(out, Event{At: at, Tenant: t, Type: EventJoin, User: u})
		}
	}
	return out, nil
}
