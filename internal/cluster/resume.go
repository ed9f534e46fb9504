package cluster

import (
	"errors"
	"fmt"
	"sync"
)

// ErrSessionSeq reports a session stream event whose seq breaks the
// rule of CheckSessionSeq; its texts are the wire protocol's.
var ErrSessionSeq = errors.New("session stream")

// CheckSessionSeq is a resumable session's numbering rule, shared with
// the fleet router. base is one past the highest applied seq and last
// the stream's previous seq, 0 before the first: a first seq may
// replay below base but not skip past it, and each later one follows
// the one before. below reports a replay, a dup if the applied set
// holds it (a set kept as a prefix, like the router's, always does).
func CheckSessionSeq(seq, base, last uint64) (below bool, err error) {
	switch {
	case seq == 0:
		return false, fmt.Errorf("%w: line missing seq", ErrSessionSeq)
	case last == 0 && seq > base:
		return false, fmt.Errorf("%w: seq %d skips past watermark %d", ErrSessionSeq, seq, base-1)
	case last != 0 && seq != last+1:
		return false, fmt.Errorf("%w: seq %d after %d breaks contiguity", ErrSessionSeq, seq, last)
	}
	return seq < base, nil
}

// session is one resumable session: the claim one stream at a time
// holds, and the applied set, written by the holder or by Recover.
type session struct {
	id      string
	claim   sync.Mutex
	applied appliedSet
}

// appliedSet holds every seq up to prefix and those in above, high its
// highest. Each shard logs its own segment, so a crash can keep a later
// event and lose an earlier one: only recovery fills above.
type appliedSet struct {
	prefix, high uint64
	above        map[uint64]bool
}

func (a *appliedSet) has(seq uint64) bool { return seq <= a.prefix || a.above[seq] }

// add records a seq recovery replayed, in log order, which across
// shards is not the client's.
func (a *appliedSet) add(seq uint64) {
	a.high = max(a.high, seq)
	if seq != a.prefix+1 {
		if a.above == nil {
			a.above = make(map[uint64]bool)
		}
		a.above[seq] = true
		return
	}
	for a.prefix = seq; a.above[a.prefix+1]; a.prefix++ {
		delete(a.above, a.prefix+1)
	}
}

// advance records a seq a live stream answered: a client opens a
// stream at its oldest unanswered seq, so the prefix moves up to it.
// It never writes into above, which a stream's copy of the set shares.
func (a *appliedSet) advance(seq uint64) {
	a.prefix, a.high = max(a.prefix, seq), max(a.high, seq)
	for a.above[a.prefix+1] {
		a.prefix++
	}
	if a.prefix == a.high {
		a.above = nil
	}
}

// session returns session id's state. Entries are never evicted: a
// forgotten applied set would let a replay apply again.
func (c *Cluster) session(id string) *session {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.sessions[id] == nil {
		c.sessions[id] = &session{id: id}
	}
	return c.sessions[id]
}
