package wal

import (
	"slices"
	"sync"
)

// A flusher coalesces group commits across a log's writers into shared
// flush rounds: a committer registers its file and waits for the next
// round, whose leader starts async writeback on every registered file
// (sync_file_range on Linux) and then fdatasyncs each one. The round's
// saving is pipelining — every file's pages are in flight before the
// first fdatasync blocks, so N committers pay overlapped I/O instead
// of N serial writebacks — not a skipped sync: durability rests on the
// per-file fdatasyncs alone. (sync_file_range carries no integrity
// guarantee, and a single fdatasync cannot stand in for the others —
// some filesystems, XFS notably, elide the device-cache FLUSH when the
// file has no dirty data or log state of its own.)
//
// Rounds self-batch exactly like the ack groups one level up: while a
// round is in flight, arriving commits gather into the next one, so a
// saturated log converges on back-to-back rounds each covering every
// writer with pending data. No timers, no tuning knob.
//
// Correctness: a round returns only after every registered file is
// fdatasync-durable. Segment sizes are durable independently of rounds
// — the appender syncs each preallocation chunk when it is claimed —
// so data within the preallocated region is readable after a crash
// once the round's fdatasyncs hold. On platforms without
// sync_file_range the round is fdatasync per file with no writeback
// overlap.
//
// Rounds are recycled, so a warm log commits without allocating: a
// round's waiters sleep on its sync.Cond, and the last waiter to read
// the round's result returns it to a free list. A round is therefore
// never reused while a waiter of it has yet to read its error, whatever
// later rounds do meanwhile. Two files slices take turns: one gathers
// registrations while the other's round is in flight.
type flusher struct {
	mu    sync.Mutex
	files []File // registered for the gathering round
	spare []File // the other slice, empty; nil while its round is in flight
	round *flushRound
	free  *flushRound // completed rounds no waiter still reads

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// A flushRound is one flush round; fl.mu guards every field.
type flushRound struct {
	cond    sync.Cond // broadcast when the round completes
	waiters int       // Flush calls that have yet to read err
	done    bool
	err     error
	next    *flushRound // free-list link
}

func newFlusher() *flusher {
	fl := &flusher{
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go fl.loop()
	return fl
}

// Flush makes everything written to f so far durable. It blocks until
// a flush round covering the registration completes, and returns that
// round's error.
func (fl *flusher) Flush(f File) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	r := fl.round
	if r == nil {
		if r = fl.free; r != nil {
			fl.free, r.next = r.next, nil
		} else {
			r = &flushRound{}
			r.cond.L = &fl.mu
		}
		fl.round = r
	}
	r.waiters++
	if !slices.Contains(fl.files, f) {
		fl.files = append(fl.files, f)
	}
	select {
	case fl.kick <- struct{}{}:
	default:
	}
	for !r.done {
		r.cond.Wait()
	}
	err := r.err
	if r.waiters--; r.waiters == 0 {
		r.done, r.err = false, nil
		r.next, fl.free = fl.free, r
	}
	return err
}

// Close stops the round loop after draining any gathered round.
func (fl *flusher) Close() {
	close(fl.stop)
	<-fl.done
}

func (fl *flusher) loop() {
	defer close(fl.done)
	for {
		select {
		case <-fl.stop:
			// Drain a round gathered after the last kick was consumed.
			fl.run()
			return
		case <-fl.kick:
			fl.run()
		}
	}
}

func (fl *flusher) run() {
	fl.mu.Lock()
	files, r := fl.files, fl.round
	if r == nil {
		fl.mu.Unlock()
		return
	}
	fl.files, fl.spare, fl.round = fl.spare, nil, nil
	fl.mu.Unlock()
	err := deviceFlush(files)
	clear(files)
	fl.mu.Lock()
	fl.spare = files[:0]
	r.err, r.done = err, true
	r.cond.Broadcast()
	fl.mu.Unlock()
}
