package online

import (
	"math"

	"repro/internal/mmd"
)

// referenceNormalize is the closure-based form of Normalize, the oracle
// FuzzNormalizeMatchesReference holds Normalize to bit for bit.
func referenceNormalize(in *mmd.Instance) (*Normalization, error) {
	out := in.Clone()
	d := 0
	for _, b := range out.Budgets {
		if !math.IsInf(b, 1) {
			d++
		}
	}
	for u := range out.Users {
		for _, k := range out.Users[u].Capacities {
			if !math.IsInf(k, 1) {
				d++
			}
		}
	}
	if d == 0 {
		return nil, ErrNotNormalized
	}
	df := float64(d)
	// Normalization scales costs and loads, never utilities, so each
	// stream's support utilities are computed once for every measure.
	support := supportUtilities(out)

	gamma := 1.0
	// scaleMeasure normalizes one cost row (cost(s) for each stream) and
	// its budget in place, returning the measure's contribution to gamma.
	scaleMeasure := func(cost func(s int) float64, setCost func(s int, v float64), budget *float64) float64 {
		ratio := math.Inf(1) // min over supported streams of minW/(D*c)
		for s := 0; s < out.NumStreams(); s++ {
			c := cost(s)
			if c <= 0 || !support[s].ok {
				continue
			}
			if r := support[s].minW / (df * c); r < ratio {
				ratio = r
			}
		}
		if math.IsInf(ratio, 1) {
			return 1 // measure never constrains supported streams
		}
		for s := 0; s < out.NumStreams(); s++ {
			setCost(s, cost(s)*ratio)
		}
		if !math.IsInf(*budget, 1) {
			*budget *= ratio
		}
		g := 1.0
		for s := 0; s < out.NumStreams(); s++ {
			c := cost(s)
			if c <= 0 || !support[s].ok {
				continue
			}
			if r := support[s].sumW / (df * c); r > g {
				g = r
			}
		}
		return g
	}

	for i := range out.Budgets {
		i := i
		g := scaleMeasure(
			func(s int) float64 { return out.Streams[s].Costs[i] },
			func(s int, v float64) { out.Streams[s].Costs[i] = v },
			&out.Budgets[i],
		)
		gamma = math.Max(gamma, g)
	}
	for u := range out.Users {
		usr := &out.Users[u]
		for j := range usr.Loads {
			j := j
			g := scaleMeasure(
				func(s int) float64 { return usr.Loads[j][s] },
				func(s int, v float64) { usr.Loads[j][s] = v },
				&usr.Capacities[j],
			)
			gamma = math.Max(gamma, g)
		}
	}
	return &Normalization{Instance: out, Gamma: gamma, D: d}, nil
}
