//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fsMagic names the statfs(2) f_type values a WAL directory is likely
// to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x858458F6: "ramfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0xF2F52010: "f2fs",
}

// fsType reports the filesystem type of dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// kernel reports the running kernel release.
func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new peak-memory interval: writing 5 to
// clear_refs resets the kernel's resident-set high-water mark.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes is the process's peak resident set size since the last
// resetPeakRSS, the VmHWM line of /proc/self/status.
func peakRSSBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return n * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// prSetTimerSlack is the Linux prctl(2) option setting a thread's
// timer slack.
const prSetTimerSlack = 29

// preciseSleep sleeps with tens-of-microseconds precision. The
// runtime's own timers can wake a millisecond late when the process is
// otherwise idle, which would make an open-loop generator run late by
// design; a nanosleep with minimal timer slack does not. The goroutine
// is not locked to its thread: a locked goroutine waking from a
// syscall with no idle P waits for the scheduler to hand one over,
// which made the generator run late by milliseconds under load.
func preciseSleep(d time.Duration) {
	// Timer slack is per thread, and this goroutine may be on any.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
