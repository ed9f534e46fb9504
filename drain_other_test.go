//go:build !unix

package videodist_test

// drainDisk is a no-op where the whole-filesystem sync syscall is
// unavailable; the WAL benchmarks just run with more variance there.
func drainDisk() {}
