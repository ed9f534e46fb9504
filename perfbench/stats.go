package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples, and false when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	// The rank is rounded to 1e-9 first: 0.99*1000 must be 990, not
	// 990.0000000000001.
	k := int(math.Ceil(math.Round(q*float64(n)*1e9)/1e9)) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k < minBeyond {
		return 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[k], true
}

// windowQuantiles splits samples into consecutive windows of size
// events and returns the q-quantile of each. It fails unless there is a
// window and every window supports its quantile (see percentile). A
// short last window is dropped.
func windowQuantiles(samples []float64, size int, q float64) ([]float64, bool) {
	var per []float64
	for lo := 0; size > 0 && lo+size <= len(samples); lo += size {
		v, ok := percentile(samples[lo:lo+size], q)
		if !ok {
			return nil, false
		}
		per = append(per, v)
	}
	return per, len(per) > 0
}

// windowedPercentile is the median of windowQuantiles: one stall moves
// one window's tail, not the result.
func windowedPercentile(samples []float64, size int, q float64) (float64, bool) {
	per, ok := windowQuantiles(samples, size, q)
	if !ok {
		return 0, false
	}
	return median(per), true
}

// median is the middle sample (mean of the middle two for an even
// count), reported with no minimum: it summarises repeated runs of a
// whole phase, not a latency distribution. The samples are sorted in
// place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// maxOf returns the largest sample (0 for none).
func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

// pacing is an open-loop send schedule: event j is due at
// start + j·period, whatever happened to the events before it.
type pacing struct {
	start  int64 // ns on the run clock
	period float64
}

func (p pacing) due(j int) int64 { return p.start + int64(float64(j)*p.period) }

// dueLatencies times each ack from its event's due time, not from when
// the generator got round to sending it, so a stall that delays the
// sender is charged to every request it delays (no coordinated
// omission). Values are microseconds, written into out's array when it
// is large enough.
func dueLatencies(out []float64, p pacing, acks []int64) []float64 {
	out = resize(out, len(acks))
	for j, a := range acks {
		out[j] = float64(a-p.due(j)) / 1e3
	}
	return out
}

// resize returns buf with length n, reusing its array when it is large
// enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// span is one timed interval at a layer boundary. Spans caused by
// another span name it as their parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Rung   int    `json:"rung"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is the part of parent's interval that none of its children
// covers: overlapping children are merged and counted once, and child
// time outside the parent's interval is clipped away.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	covered += cur.hi - cur.lo
	return parent.End - parent.Start - covered
}

// windowRates turns cumulative (time ns, count) checkpoints into the
// per-interval rates between consecutive checkpoints, in counts/s.
func windowRates(ts, counts []int64) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		if dt := ts[i] - ts[i-1]; dt > 0 {
			out = append(out, float64(counts[i]-counts[i-1])/(float64(dt)/1e9))
		}
	}
	return out
}
