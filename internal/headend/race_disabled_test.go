//go:build !race

package headend_test

const raceEnabled = false
