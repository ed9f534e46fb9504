//go:build !race

package online_test

const raceEnabled = false
