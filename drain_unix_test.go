//go:build unix

package videodist_test

import "syscall"

// drainDisk flushes all pending filesystem writeback and journal
// activity so a WAL benchmark's timed window starts from a quiet disk.
// Called between StopTimer and StartTimer only.
func drainDisk() { syscall.Sync() }
