package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
)

// TestSolveManyBandsConcurrent runs Solve (solver.go) on a high-skew
// instance that decomposes into many bands, from several goroutines at
// once, each with its own workspace. Run under -race (the CI does) it
// proves that callers share nothing but the read-only instances,
// including when a workspace reuses its band slots from one solve to
// the next (every caller alternates the instance with one of another
// band count). It also asserts that all callers see the same
// bit-identical result, whatever the goroutines' timing.
func TestSolveManyBandsConcurrent(t *testing.T) {
	in, err := generator.RandomMMD{
		Streams: 24, Users: 6, M: 3, MC: 2, Seed: 77, Skew: 4096,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := core.Solve(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bands < 4 {
		t.Fatalf("instance decomposed into only %d bands; band slots barely exercised", rep.Bands)
	}

	other, err := generator.RandomMMD{
		Streams: 18, Users: 5, M: 2, MC: 1, Seed: 78, Skew: 16,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	_, otherRep, err := core.Solve(other, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if otherRep.Bands == rep.Bands {
		t.Fatalf("both instances decompose into %d bands; slot reuse barely exercised", rep.Bands)
	}

	const callers = 8
	values := make([]float64, callers)
	bandValues := make([][]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws core.Workspace
			for round := 0; round < 3; round++ {
				if _, r, err := ws.Solve(other, core.Options{}); err != nil || r.Value != otherRep.Value {
					t.Errorf("caller %d round %d: other instance: %v, %v", i, round, r, err)
					return
				}
				a, r, err := ws.Solve(in, core.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if err := a.CheckFeasible(in); err != nil {
					t.Errorf("caller %d: infeasible: %v", i, err)
					return
				}
				values[i] = r.Value
				bandValues[i] = append([]float64(nil), r.BandValues...)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if values[i] != values[0] {
			t.Fatalf("caller %d value %v != caller 0 value %v", i, values[i], values[0])
		}
		for b := range bandValues[i] {
			if bandValues[i][b] != bandValues[0][b] {
				t.Fatalf("caller %d band %d value %v != %v",
					i, b, bandValues[i][b], bandValues[0][b])
			}
		}
	}
}
