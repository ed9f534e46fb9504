package headend_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/mmd"
)

// churnGoldenDigests are TestChurnGolden's digests, one per policy,
// recorded before gateway leaves stopped copying. A leave or join that
// returns another list, or leaves another assignment, snapshot or
// re-solve value behind, changes its policy's digest.
var churnGoldenDigests = map[string]uint64{
	"online-ledger":    0x581397d983caacce,
	"online-rescan":    0x581397d983caacce,
	"online-unguarded": 0x9a6ec2de0070a819,
	"threshold":        0x5c870c614628040e,
}

// churnStep is one event of the golden schedule.
type churnStep struct {
	kind byte // 'o' offer, 'd' depart, 'l' leave, 'j' join, 'r' re-solve
	arg  int  // stream or gateway; for 'r', 1 asks for an install
}

// churnSchedule is a seeded event order over in, the same for every
// policy: offers, departures, leaves and joins, with a gateway that
// leaves holding nothing first, double leaves and joins of online
// gateways along the way, and a re-solve every 50 events, three in
// four of them installing.
func churnSchedule(in *mmd.Instance, seed int64, n int) []churnStep {
	rng := rand.New(rand.NewSource(seed))
	steps := []churnStep{{'l', 0}, {'j', 0}, {'j', 1}}
	for i := 1; len(steps) < n; i++ {
		if i%50 == 0 {
			install := 0
			if i%200 != 0 {
				install = 1
			}
			steps = append(steps, churnStep{'r', install})
			continue
		}
		switch p := rng.Intn(100); {
		case p < 45:
			steps = append(steps, churnStep{'o', rng.Intn(in.NumStreams())})
		case p < 65:
			steps = append(steps, churnStep{'d', rng.Intn(in.NumStreams())})
		case p < 80:
			u := rng.Intn(in.NumUsers())
			steps = append(steps, churnStep{'l', u})
			if rng.Intn(4) == 0 {
				steps = append(steps, churnStep{'l', u})
			}
		default:
			steps = append(steps, churnStep{'j', rng.Intn(in.NumUsers())})
		}
	}
	return steps
}

// digest folds values into an FNV-1a hash, eight bytes each.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digest) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) float(v float64) { d.int(int(math.Float64bits(v))) }

func (d *digest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

// list folds a returned list, telling nil from empty: result lines
// write null for one and [] for the other.
func (d *digest) list(l []int) {
	if l == nil {
		d.int(-1)
		return
	}
	d.int(len(l))
	for _, v := range l {
		d.int(v)
	}
}

func (d *digest) snapshot(s headend.TenantSnapshot) {
	d.float(s.Utility)
	for _, v := range []int{s.StreamsOffered, s.StreamsAdmitted, s.StreamsDeparted,
		s.UserLeaves, s.UserJoins, s.Resolves, s.Installs, s.ActiveStreams, s.Pairs} {
		d.int(v)
	}
	d.float(s.LastResolveValue)
	d.bool(s.Feasible)
}

// TestChurnGolden runs a seeded schedule of offers, departures, leaves,
// joins and re-solves on two CableTV head-ends under the guarded
// online policy (ledger and rescan guards), the unguarded one and the
// threshold baseline. Every step's returned list, every re-solve's
// outcome and snapshot, and each run's final snapshot and assignment
// fold into one digest per policy, which must match the recorded one
// bit for bit.
func TestChurnGolden(t *testing.T) {
	instances := []generator.CableTV{
		{Channels: 30, Gateways: 8, Seed: 61, EgressFraction: 0.3},
		{Channels: 48, Gateways: 14, Seed: 62, EgressFraction: 0.2, DownlinkMbps: 20},
	}
	policies := []struct {
		name string
		make func(in *mmd.Instance) (headend.Policy, error)
	}{
		{"online-ledger", func(in *mmd.Instance) (headend.Policy, error) { return headend.NewOnlinePolicy(in, true) }},
		{"online-rescan", func(in *mmd.Instance) (headend.Policy, error) { return headend.NewRescanOnlinePolicy(in) }},
		{"online-unguarded", func(in *mmd.Instance) (headend.Policy, error) { return headend.NewOnlinePolicy(in, false) }},
		{"threshold", func(in *mmd.Instance) (headend.Policy, error) { return headend.NewThresholdPolicy(in, 1) }},
	}
	for _, pc := range policies {
		d := digest{h: fnv.New64a()}
		// leaves counts leaves of gateways holding two or more
		// streams, empty those holding none (or already away), and
		// orphans departures of streams every holder had left.
		leaves, empty, orphans := 0, 0, 0
		for k, gen := range instances {
			in, err := gen.Generate()
			if err != nil {
				t.Fatal(err)
			}
			pol, err := pc.make(in)
			if err != nil {
				t.Fatal(err)
			}
			tn, err := headend.NewTenant(in, pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range churnSchedule(in, 700+int64(k), 900) {
				d.int(int(st.kind))
				d.int(st.arg)
				switch st.kind {
				case 'o':
					d.list(tn.OfferStream(st.arg))
				case 'd':
					got := tn.DepartStream(st.arg)
					if got != nil && len(got) == 0 {
						orphans++
					}
					d.list(got)
				case 'l':
					got := tn.UserLeave(st.arg)
					switch {
					case got == nil:
						empty++
					case len(got) >= 2:
						leaves++
					}
					d.list(got)
				case 'j':
					tn.UserJoin(st.arg)
				case 'r':
					out, err := tn.Resolve(core.Options{}, st.arg == 1)
					if err != nil {
						t.Fatalf("%s: %v", pc.name, err)
					}
					d.float(out.OnlineValue)
					d.float(out.OfflineValue)
					d.bool(out.Installed)
					d.snapshot(tn.Snapshot())
				}
			}
			d.snapshot(tn.Snapshot())
			a := tn.Assignment()
			for u := 0; u < a.NumUsers(); u++ {
				d.list(a.UserStreams(u))
			}
		}
		if leaves < 20 || empty == 0 || orphans == 0 {
			t.Fatalf("%s: %d multi-stream leaves, %d empty leaves, %d orphaned departures: the schedule no longer exercises churn",
				pc.name, leaves, empty, orphans)
		}
		if got, want := d.h.Sum64(), churnGoldenDigests[pc.name]; got != want {
			t.Errorf("%s: digest %#x, want %#x", pc.name, got, want)
		}
	}
}
