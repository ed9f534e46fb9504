//go:build race

package wal

// raceEnabled reports that this test binary was built with -race; the
// allocation pins skip themselves there (the race runtime adds its own
// allocations to the counters AllocsPerRun reads).
const raceEnabled = true
