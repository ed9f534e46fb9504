package wal

import (
	"bytes"
	"fmt"
	"sync"
)

// SyncPolicy selects how eagerly an appender makes records durable.
type SyncPolicy int

const (
	// SyncNone buffers appends in process and writes them out only when
	// the buffer fills or the segment is sealed. Fastest; a crash loses
	// whatever was still buffered (acked events included).
	SyncNone SyncPolicy = iota
	// SyncInterval has the log's background syncer flush and fsync every
	// appender on a fixed interval; a crash loses at most one interval.
	SyncInterval
	// SyncBatch is group commit: the shard's committer goroutine flushes
	// and fsyncs the segment once per acknowledgement group, before any
	// of the group's results are delivered — an acknowledged event
	// survives even power loss. The fsync runs off the worker's apply
	// loop and groups queued behind an in-flight fsync share the next
	// one, so a pipelined submitter pays roughly one fsync per disk
	// latency, not per ack group.
	SyncBatch
)

// ParseSyncPolicy maps the mmdserve flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "interval":
		return SyncInterval, nil
	case "batch", "":
		return SyncBatch, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want none, interval, or batch)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncBatch:
		return "batch"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// appenderFlushAt is the buffered-bytes threshold that forces a write
// syscall regardless of policy, so SyncNone still drains steadily.
const appenderFlushAt = 32 << 10

// preallocChunk is the segment preallocation granularity. A chunk is
// zero-filled and synced ahead of the append head, so group commits
// overwrite blocks that are already allocated and written back: the
// commit's fdatasync is then pure data writeback plus a device flush —
// it never has to commit the filesystem journal, and (the part that
// matters on a shared journal) never locks out the other shard
// workers' write calls while it runs. The cost — writing the chunk
// twice — is paid once per chunk at segment open or growth, off the
// ack path. Sealing truncates the unused tail away; a crash leaves a
// zero tail that the segment parser already classifies as torn, and
// recovery truncates it.
const preallocChunk = 256 << 10

// zeroChunk is the shared write buffer for preallocation fills.
var zeroChunk = make([]byte, 64<<10)

// An Appender is one writer's handle on the active segment file. Each
// shard worker owns exactly one (the ownership rule: nothing else
// appends to a shard's segment), and the catalog registry's owner
// goroutine owns one more. Append never blocks on the disk beyond the
// occasional buffer drain; Commit is the group-commit barrier.
//
// The internal mutex exists for the log's background syncer and the
// commit goroutines, not for concurrent appends — appends stay
// single-writer. Durability progress is a pair of byte watermarks:
// flushed (handed to the kernel) and synced (covered by an fsync).
// Commit snapshots the flushed watermark, fsyncs with the lock
// dropped — so the owning worker keeps appending — and then advances
// the synced watermark; a commit whose target is already covered by a
// concurrent fsync skips the syscall entirely.
type Appender struct {
	name string

	mu       sync.Mutex
	f        File
	fl       *flusher // shared commit flusher (SyncBatch only)
	buf      []byte
	flushed  uint64 // bytes handed to the kernel
	synced   uint64 // bytes covered by an fsync
	prealloc uint64 // bytes zero-filled ahead of the append head
	sync     SyncPolicy
	err      error // first append/flush/sync error, latched
}

// Name returns the writer name (e.g. "s0", "catalog").
func (a *Appender) Name() string { return a.name }

// Append encodes r onto the appender's buffer, draining to the file
// when the buffer is full. Errors are latched and resurface on Commit,
// Flush, and seal — an appender that has failed once stays failed.
func (a *Appender) Append(r *Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	a.buf = AppendRecord(a.buf, r)
	if len(a.buf) >= appenderFlushAt {
		a.flushLocked()
	}
	return a.err
}

// Commit is the group-commit barrier: under SyncBatch it flushes the
// buffer and fsyncs the segment, making every record appended before
// the call durable; under the other policies it is a no-op (their
// durability points are elsewhere). The shard's committer goroutine
// calls it once per acknowledgement group, before delivering any of
// the group's results. The fsync runs with the lock dropped, so the
// owning worker's appends proceed while the disk catches up; records
// appended during the fsync simply stay unsynced until the next
// commit.
func (a *Appender) Commit() error {
	a.mu.Lock()
	if a.sync != SyncBatch || a.err != nil {
		err := a.err
		a.mu.Unlock()
		return err
	}
	a.flushLocked()
	if a.err != nil || a.flushed == a.synced {
		err := a.err
		a.mu.Unlock()
		return err
	}
	target := a.flushed
	f, fl := a.f, a.fl
	a.mu.Unlock()
	var serr error
	if fl != nil {
		serr = fl.Flush(f)
	} else {
		serr = f.Datasync()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if serr != nil {
		if a.err == nil {
			a.err = fmt.Errorf("wal: %s: fsync: %w", a.name, serr)
		}
		return a.err
	}
	if target > a.synced {
		a.synced = target
	}
	return a.err
}

// Flush writes buffered records to the kernel (no fsync), so the file
// contains everything appended so far (Log.FlushAll).
func (a *Appender) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flushLocked()
	return a.err
}

// flushAndSync is Flush plus fsync (the interval syncer's step).
func (a *Appender) flushAndSync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flushLocked()
	a.syncLocked()
	return a.err
}

func (a *Appender) flushLocked() {
	if a.err != nil || len(a.buf) == 0 {
		return
	}
	n := len(a.buf)
	if want := a.flushed + uint64(n); want > a.prealloc {
		a.preallocLocked(want)
		if a.err != nil {
			return
		}
	}
	if _, err := a.f.Write(a.buf); err != nil {
		a.err = fmt.Errorf("wal: %s: write: %w", a.name, err)
		return
	}
	a.buf = a.buf[:0]
	a.flushed += uint64(n)
}

// preallocLocked zero-fills and syncs whole chunks until the file
// covers want bytes. WriteAt leaves the append offset alone; the
// datasync writes the zeros back so the eventual record overwrites are
// metadata-free (see preallocChunk).
func (a *Appender) preallocLocked(want uint64) {
	next := (want + preallocChunk - 1) / preallocChunk * preallocChunk
	for off := a.prealloc; off < next; {
		chunk := uint64(len(zeroChunk))
		if off+chunk > next {
			chunk = next - off
		}
		if _, err := a.f.WriteAt(zeroChunk[:chunk], int64(off)); err != nil {
			a.err = fmt.Errorf("wal: %s: preallocate: %w", a.name, err)
			return
		}
		off += chunk
	}
	if err := a.f.Datasync(); err != nil {
		a.err = fmt.Errorf("wal: %s: preallocate sync: %w", a.name, err)
		return
	}
	a.prealloc = next
}

func (a *Appender) syncLocked() {
	if a.err != nil || a.flushed == a.synced {
		return
	}
	if err := a.f.Datasync(); err != nil {
		a.err = fmt.Errorf("wal: %s: fsync: %w", a.name, err)
		return
	}
	a.synced = a.flushed
}

// seal flushes, truncates the preallocated tail away, fsyncs, and
// closes the segment file (checkpoint rotation and log close) — a
// sealed segment is exactly its records, no zero tail.
func (a *Appender) seal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flushLocked()
	if a.err == nil && a.prealloc > a.flushed {
		if err := a.f.Truncate(int64(a.flushed)); err != nil {
			a.err = fmt.Errorf("wal: %s: truncate prealloc tail: %w", a.name, err)
		} else {
			a.prealloc = a.flushed
		}
	}
	if a.err == nil {
		// Full fsync, not datasync: the truncated size must be durable
		// before the manifest that fences this generation is written.
		if err := a.f.Sync(); err != nil {
			a.err = fmt.Errorf("wal: %s: fsync: %w", a.name, err)
		} else {
			a.synced = a.flushed
		}
	}
	if cerr := a.f.Close(); cerr != nil && a.err == nil {
		a.err = fmt.Errorf("wal: %s: close: %w", a.name, cerr)
	}
	return a.err
}

// segmentData is one parsed segment file.
type segmentData struct {
	records []Record
	// tornAt >= 0 marks a torn final line: the byte offset of the valid
	// prefix (recovery truncates the file there). -1 when the segment is
	// clean.
	tornAt int64
}

// parseSegment parses a segment body. Torn-tail rule: a line that
// fails to decode is tolerated only when it is the final line and
// unterminated (no trailing newline) — the signature of a crash
// mid-write. A malformed line anywhere else, or a newline-terminated
// final line that does not decode, is a hard error; the log is never
// silently skipped over mid-file.
func parseSegment(data []byte) (segmentData, error) {
	out := segmentData{tornAt: -1}
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Unterminated final line: decodable means the terminator
			// itself was lost mid-write (still a torn tail — the write
			// was not complete); undecodable is the classic torn line.
			// Either way the valid prefix ends here.
			out.tornAt = off
			return out, nil
		}
		line := data[:nl]
		if len(bytes.TrimSpace(line)) > 0 {
			rec, err := DecodeRecord(line)
			if err != nil {
				if int64(nl+1) == int64(len(data)) {
					return out, fmt.Errorf("wal: segment offset %d: terminated final line is malformed (not a torn tail): %w", off, err)
				}
				return out, fmt.Errorf("wal: segment offset %d: malformed record mid-log: %w", off, err)
			}
			out.records = append(out.records, rec)
		}
		data = data[nl+1:]
		off += int64(nl + 1)
	}
	return out, nil
}
