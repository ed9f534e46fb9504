package online_test

import (
	"runtime"
	"testing"

	"repro/internal/generator"
	"repro/internal/online"
)

// TestNormalizeAllocations pins Normalize on a churn-resolve head-end
// (120 channels, 40 gateways) at 8 allocations or fewer, each of 20
// calls counted on its own with runtime.ReadMemStats: the copy's float
// rows come from one array and its load-row headers from one more, and
// the scaling passes are plain loops.
func TestNormalizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	in, err := generator.CableTV{Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&m0)
		_, err := online.Normalize(in)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if n := m1.Mallocs - m0.Mallocs; n > 8 {
			t.Fatalf("Normalize allocates %d times, want at most 8", n)
		}
	}
}
