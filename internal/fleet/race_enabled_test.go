//go:build race

package fleet

// raceEnabled reports that this test binary was built with -race; the
// allocation-budget tests skip themselves there (the race runtime adds
// its own allocations to the counters AllocsPerRun reads).
const raceEnabled = true
