package wal

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// syncFile is a File whose Datasync returns err; every other method
// does nothing.
type syncFile struct{ err error }

func (f *syncFile) Write(p []byte) (int, error)              { return len(p), nil }
func (f *syncFile) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (f *syncFile) Truncate(int64) error                     { return nil }
func (f *syncFile) Sync() error                              { return nil }
func (f *syncFile) Datasync() error                          { return f.err }
func (f *syncFile) Close() error                             { return nil }

// TestFlushAllocationFree pins a warm commit flush at zero
// allocations: rounds come back from the free list and the files
// slices are swapped, not regrown.
func TestFlushAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	fl := newFlusher()
	defer fl.Close()
	a, b := &syncFile{}, &syncFile{}
	flush := func() {
		if err := fl.Flush(a); err != nil {
			t.Fatal(err)
		}
		if err := fl.Flush(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		flush()
	}
	if avg := testing.AllocsPerRun(200, flush); avg != 0 {
		t.Fatalf("warm Flush allocates %.2f per two flushes, want 0", avg)
	}
}

// TestFlushRoundErrors drives rounds by hand: round N's two waiters
// register a failing and a healthy file, round N+1's waiter the
// healthy one alone, and round N+1 runs before round N's waiters need
// have read their result. Every waiter must see its own round's
// outcome — round N's error, round N+1's success — however the rounds
// are recycled meanwhile.
func TestFlushRoundErrors(t *testing.T) {
	// No loop goroutine: the test runs each round itself.
	fl := &flusher{kick: make(chan struct{}, 1)}
	boom := errors.New("injected fsync failure")
	bad, good := &syncFile{err: boom}, &syncFile{}
	for i := 0; i < 200; i++ {
		failed, passed := make(chan error, 2), make(chan error, 1)
		go func() { failed <- fl.Flush(bad) }()
		go func() { failed <- fl.Flush(good) }()
		waitWaiters(t, fl, 2)
		fl.run()
		go func() { passed <- fl.Flush(good) }()
		waitWaiters(t, fl, 1)
		fl.run()
		for k := 0; k < 2; k++ {
			if err := <-failed; !errors.Is(err, boom) {
				t.Fatalf("iteration %d: a waiter of the failed round got %v, want %v", i, err, boom)
			}
		}
		if err := <-passed; err != nil {
			t.Fatalf("iteration %d: the waiter of the healthy round got %v", i, err)
		}
	}
}

// waitWaiters waits until the gathering round has n waiters, and fails
// the test if that takes ten seconds.
func waitWaiters(t *testing.T, fl *flusher, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		fl.mu.Lock()
		ready := fl.round != nil && fl.round.waiters == n
		fl.mu.Unlock()
		if ready {
			return
		}
	}
	t.Fatalf("the gathering round never had %d waiters", n)
}
