//go:build race

package online_test

// raceEnabled reports that this test binary was built with -race; the
// allocation pins skip themselves there (the race runtime adds its own
// allocations to the counters they read).
const raceEnabled = true
