package reduction

import (
	"math"
	"testing"
)

// FuzzIntervalSets drives the Fig. 3 decomposition with arbitrary
// weights (clamped into [0, 1)) and asserts its invariants: exact
// partition, per-set weight at most 1, and the 2W-1 set-count bound.
func FuzzIntervalSets(f *testing.F) {
	f.Add(uint16(3), uint64(12345))
	f.Add(uint16(1), uint64(0))
	f.Add(uint16(12), uint64(999))

	f.Fuzz(func(t *testing.T, n uint16, bits uint64) {
		count := int(n%24) + 1
		weights := make([]float64, count)
		items := make([]int, count)
		total := 0.0
		state := bits
		for i := range weights {
			// xorshift-ish deterministic weights in [0, 0.999].
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			weights[i] = float64(state%1000) / 1001.0
			items[i] = i
			total += weights[i]
		}
		sets := intervalSets(nil, items, func(i int) float64 { return weights[i] })

		seen := make(map[int]int)
		for _, set := range sets {
			sum := 0.0
			for _, it := range set {
				seen[it]++
				sum += weights[it]
			}
			if sum > 1+1e-9 {
				t.Fatalf("set weight %v exceeds 1", sum)
			}
		}
		if len(seen) != count {
			t.Fatalf("partition lost items: %d of %d", len(seen), count)
		}
		for it, c := range seen {
			if c != 1 {
				t.Fatalf("item %d appears %d times", it, c)
			}
		}
		limit := 2*int(math.Ceil(total+1e-9)) - 1
		if limit < 1 {
			limit = 1
		}
		if len(sets) > limit {
			t.Fatalf("%d sets exceed the 2W-1 bound %d (total %v)", len(sets), limit, total)
		}
	})
}
