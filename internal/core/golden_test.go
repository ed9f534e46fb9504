package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/mmd"
)

// goldenCase is one fixed Solve input of TestSolveGolden.
type goldenCase struct {
	name string
	in   func() (*mmd.Instance, error)
	opts core.Options
}

// randomGolden is a RandomMMD instance of the golden corpus.
func randomGolden(streams, users, m, mc int, seed int64, skew float64) func() (*mmd.Instance, error) {
	return func() (*mmd.Instance, error) {
		return generator.RandomMMD{
			Streams: streams, Users: users, M: m, MC: mc, Seed: seed, Skew: skew,
		}.Generate()
	}
}

// cableGolden is a churn-resolve head-end (120 channels, 40 gateways,
// egress at a quarter of the catalog) with the gateways that mask
// selects away: their utilities are zeroed, which is the instance a
// tenant's re-solve hands the solver.
func cableGolden(seed int64, mask func(u int) bool) func() (*mmd.Instance, error) {
	return func() (*mmd.Instance, error) {
		in, err := generator.CableTV{
			Channels: 120, Gateways: 40, Seed: seed, EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			return nil, err
		}
		for u := range in.Users {
			if mask(u) {
				clear(in.Users[u].Utility)
			}
		}
		return in, nil
	}
}

// goldenCorpus covers the skew range of RandomMMD, both lift variants
// and partial enumeration, and the churn-resolve head-ends under
// several away masks.
func goldenCorpus() []goldenCase {
	var cases []goldenCase
	for i, skew := range []float64{1, 2, 8, 64, 512, 4096} {
		seed := int64(900 + i)
		cases = append(cases,
			goldenCase{name: fmt.Sprintf("random-skew%g", skew), in: randomGolden(30, 10, 3, 2, seed, skew)},
			goldenCase{name: fmt.Sprintf("random-wide-skew%g", skew), in: randomGolden(60, 6, 2, 3, seed+50, skew)},
		)
	}
	cases = append(cases,
		goldenCase{name: "random-faithful", in: randomGolden(24, 8, 3, 2, 931, 16), opts: core.Options{PaperFaithfulLift: true}},
		goldenCase{name: "random-enum", in: randomGolden(10, 5, 2, 2, 932, 8), opts: core.Options{Algorithm: core.AlgoPartialEnum}},
	)
	rng := rand.New(rand.NewSource(933))
	scattered := make([]bool, 40)
	for u := range scattered {
		scattered[u] = rng.Intn(4) == 0
	}
	masks := []struct {
		name string
		away func(u int) bool
	}{
		{"none", func(int) bool { return false }},
		{"first3", func(u int) bool { return u < 3 }},
		{"every7", func(u int) bool { return u%7 == 3 }},
		{"scattered", func(u int) bool { return scattered[u] }},
	}
	for tenant := int64(0); tenant < 8; tenant++ {
		for _, m := range masks {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("cabletv%d-%s", tenant, m.name),
				in:   cableGolden(300+tenant, m.away),
			})
		}
	}
	return cases
}

// solveDigest hashes an assignment and every Report field, floats by
// their bits, so any change to a selection or a sum shows.
func solveDigest(a *mmd.Assignment, rep *core.Report) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	float := func(f float64) { word(math.Float64bits(f)) }
	word(uint64(a.NumUsers()))
	for u := 0; u < a.NumUsers(); u++ {
		streams := a.UserStreams(u)
		word(uint64(len(streams)))
		for _, s := range streams {
			word(uint64(s))
		}
	}
	float(rep.Value)
	float(rep.Alpha)
	word(uint64(rep.Bands))
	word(uint64(len(rep.BandValues)))
	for _, v := range rep.BandValues {
		float(v)
	}
	float(rep.SingleStreamValue)
	float(rep.DirectGreedyValue)
	float(rep.ApproxFactor)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenDigests are the digests of goldenCorpus, in corpus order. Any
// change to them is a change in solver output.
var goldenDigests = map[string]string{
	"random-skew1":         "d0470f4aee9317cd",
	"random-wide-skew1":    "ddb7e976a114e746",
	"random-skew2":         "3e76d00425023d51",
	"random-wide-skew2":    "be5852a1e3bc18d3",
	"random-skew8":         "d52cdafd8f0af3f1",
	"random-wide-skew8":    "f2fbd18e19bc6a22",
	"random-skew64":        "337c78d255a6b672",
	"random-wide-skew64":   "0e38b8be300a2b06",
	"random-skew512":       "88946e8adde55eed",
	"random-wide-skew512":  "f5b8e6242b46254a",
	"random-skew4096":      "7a87062e42b3a099",
	"random-wide-skew4096": "252ed42cb1be559a",
	"random-faithful":      "c4b20a4fc25dd1eb",
	"random-enum":          "72ad0a52a0d82996",
	"cabletv0-none":        "e57640d9aa656439",
	"cabletv0-first3":      "a69be29151a179c1",
	"cabletv0-every7":      "1909c30d59a301eb",
	"cabletv0-scattered":   "730cc25eed4e9679",
	"cabletv1-none":        "86194dc74064ea7c",
	"cabletv1-first3":      "2356be39eeb11e3f",
	"cabletv1-every7":      "29132e7357c65519",
	"cabletv1-scattered":   "1ac15932b02402d8",
	"cabletv2-none":        "d10ff8b5d067b633",
	"cabletv2-first3":      "850f6245b899442e",
	"cabletv2-every7":      "8ddafdfe58109cb4",
	"cabletv2-scattered":   "ef63c5902f5d0e60",
	"cabletv3-none":        "b3d9f982fa8b4fb3",
	"cabletv3-first3":      "086f17a0374833b3",
	"cabletv3-every7":      "0e7cff2530f24d10",
	"cabletv3-scattered":   "655636df70f7959f",
	"cabletv4-none":        "110c498b7c734cd4",
	"cabletv4-first3":      "c669c3605c596140",
	"cabletv4-every7":      "87a125ea0a905b3e",
	"cabletv4-scattered":   "fa6606b23648b7d3",
	"cabletv5-none":        "fd3673aa19aeec37",
	"cabletv5-first3":      "12d6fbe16a643f25",
	"cabletv5-every7":      "0491a4c87f14f24e",
	"cabletv5-scattered":   "d22cb4ac70a79f09",
	"cabletv6-none":        "40b89b060542b453",
	"cabletv6-first3":      "0e286d345d7359ac",
	"cabletv6-every7":      "ebb8ddb7bec3eb5e",
	"cabletv6-scattered":   "de5f81487b7484ac",
	"cabletv7-none":        "d2387ba368465601",
	"cabletv7-first3":      "1250a04a63f1c78d",
	"cabletv7-every7":      "2a1d39f69e8d336e",
	"cabletv7-scattered":   "f66a31d2b41ff1f0",
}

// TestSolveGolden pins Solve's output bit for bit over a fixed corpus.
func TestSolveGolden(t *testing.T) {
	for _, c := range goldenCorpus() {
		in, err := c.in()
		if err != nil {
			t.Fatalf("%s: generate: %v", c.name, err)
		}
		a, rep, err := core.Solve(in, c.opts)
		if err != nil {
			t.Fatalf("%s: solve: %v", c.name, err)
		}
		got := solveDigest(a, rep)
		want, ok := goldenDigests[c.name]
		if !ok {
			t.Errorf("%s: no golden digest; got %q", c.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
}
