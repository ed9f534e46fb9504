package streamclient

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrWindowFull reports a Send on a Session whose unacked window is at
// capacity. Drain results (Recv) before sending more — the window is
// the replay buffer, so it cannot grow without bound.
var ErrWindowFull = errors.New("streamclient: session window full")

// sessionWindow caps the unacked events a Session holds for replay.
const sessionWindow = 8192

// SessionOptions configures a resumable Session.
type SessionOptions struct {
	// ID is the session identity, required and caller-chosen (unique
	// per logical client — a UUID, a hostname+pid). The server keys
	// the session's applied set by it, including across restarts.
	ID string
	// MaxAttempts bounds the redials per outage (default 8); the
	// attempt counter resets after every successful reconnect.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the exponential backoff between
	// redial attempts (defaults 10ms and 2s). A server Retry-After
	// hint overrides a shorter computed delay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the backoff jitter deterministic (chaos drills replay
	// schedules exactly); 0 uses a fixed default seed.
	Seed int64
	// Dial replaces net.Dial (see DialOptions.Dial).
	Dial func(network, addr string) (net.Conn, error)
}

// Session is a streaming connection that survives the connection: it
// assigns every event a per-session sequence number, keeps unacked
// events in a replay window, and on any transport failure redials with
// exponential backoff + jitter and replays the window. The server
// dedups replayed seqs against the session's applied set, rebuilt from
// its WAL after a crash, so each event is applied at most once no
// matter how many times the connection (or the server) dies
// mid-flight; already-applied replays come back as Dup-marked results.
//
// Concurrency matches Conn: one sender goroutine (Send, CloseSend) and
// one receiver goroutine (Recv) at a time. Reconnection is driven from
// whichever side hits the failure and is serialized internally; the
// backoff sleep blocks the session, which is the point — there is no
// server to talk to.
type Session struct {
	base string
	opts SessionOptions

	mu         sync.Mutex
	conn       *Conn
	nextSeq    uint64  // last assigned seq
	ackSeq     uint64  // highest acked seq (results and dups)
	wireSeq    uint64  // highest seq written to the current conn
	unacked    []Event // ascending seq: the replay window
	rng        *rand.Rand
	sendClosed bool
	eof        bool  // clean end of stream observed
	err        error // latched fatal error
	dups       int
	redials    int
}

// NewSession prepares a resumable session against an mmdserve base
// URL. No connection is opened yet — the first Send or Recv dials (and
// a dial failure there retries under the same backoff policy as any
// mid-stream outage).
func NewSession(baseURL string, opts SessionOptions) (*Session, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("streamclient: session needs an ID")
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 10 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 2 * time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Session{base: baseURL, opts: opts, rng: rand.New(rand.NewSource(seed))}, nil
}

// Send pipelines one event. ev.Seq is assigned by the session (any
// caller value is overwritten); the event stays in the replay window
// until its result (or dup acknowledgement) arrives. A transport
// failure triggers reconnect + replay inline, so a nil return means
// the event is on the wire exactly once from the server's point of
// view.
func (s *Session) Send(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.sendClosed {
		return fmt.Errorf("streamclient: send side closed")
	}
	if len(s.unacked) >= sessionWindow {
		return ErrWindowFull
	}
	s.nextSeq++
	ev.Seq = s.nextSeq
	s.unacked = append(s.unacked, ev)
	if s.conn == nil {
		// redial replays the window, this event included.
		return s.redialLocked(0)
	}
	if ev.Seq > s.wireSeq {
		if err := s.conn.Send(ev); err != nil {
			return s.redialLocked(0)
		}
		s.wireSeq = ev.Seq
	}
	return nil
}

// Recv returns the next result, reconnecting and replaying as needed.
// Results arrive in seq order; a Dup-marked result acknowledges an
// event the server had already applied before a reconnect. After
// CloseSend and the final result, Recv reports io.EOF.
func (s *Session) Recv() (Result, error) {
	var res Result
	err := s.recv(func(c *Conn) (int, bool, error) {
		var err error
		res, err = c.Recv()
		return res.Seq, res.Dup, err
	})
	return res, err
}

// RecvLine is Recv without the decode, for relays that pass result
// lines on: it returns the next result line (without its newline), its
// seq and its dup mark, with Recv's reconnect, replay and ack handling.
// Seq and dup mark come from the line's head when it has the shape
// servers write; any other line is decoded and re-encoded through
// encoding/json. Either way the line opens with {"seq":N. It is valid
// until the next Recv or RecvLine call.
func (s *Session) RecvLine() (line []byte, seq int, dup bool, err error) {
	err = s.recv(func(c *Conn) (int, bool, error) {
		var err error
		line, seq, dup, err = c.recvLine()
		return seq, dup, err
	})
	return line, seq, dup, err
}

// recv runs one read on the current connection, acking what it reports
// and reconnecting on failure until a read succeeds, the stream ends,
// or the session fails.
func (s *Session) recv(read func(*Conn) (seq int, dup bool, err error)) error {
	for {
		s.mu.Lock()
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return err
		}
		if s.eof {
			s.mu.Unlock()
			return io.EOF
		}
		if s.conn == nil {
			if s.sendClosed && len(s.unacked) == 0 {
				s.eof = true
				s.mu.Unlock()
				return io.EOF
			}
			if err := s.redialLocked(0); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		c := s.conn
		s.mu.Unlock()

		seq, dup, err := read(c)
		if err == nil {
			s.mu.Lock()
			if seq > 0 {
				s.ackLocked(uint64(seq))
				if dup {
					s.dups++
				}
			}
			s.mu.Unlock()
			return nil
		}
		if err == io.EOF {
			s.mu.Lock()
			done := s.sendClosed && len(s.unacked) == 0
			if done {
				s.eof = true
			} else if s.conn == c {
				s.conn = nil // premature EOF: server went away mid-stream
			}
			s.mu.Unlock()
			if done {
				return io.EOF
			}
			continue
		}
		var hint time.Duration
		var se *StatusError
		if errors.As(err, &se) {
			if !se.Retryable() {
				s.mu.Lock()
				s.err = se
				s.mu.Unlock()
				return se
			}
			hint = se.RetryAfter
		}
		// Close the dead conn before taking the lock: a sender parked
		// mid-write on it unblocks with an error instead of holding the
		// lock hostage behind a TCP timeout.
		c.Close()
		s.mu.Lock()
		if s.conn == c {
			s.conn = nil
			if rerr := s.redialLocked(hint); rerr != nil {
				s.mu.Unlock()
				return rerr
			}
		}
		s.mu.Unlock()
	}
}

// ackLocked advances the watermark and trims the replay window.
func (s *Session) ackLocked(seq uint64) {
	if seq > s.ackSeq {
		s.ackSeq = seq
	}
	i := 0
	for i < len(s.unacked) && s.unacked[i].Seq <= seq {
		i++
	}
	if i > 0 {
		s.unacked = append(s.unacked[:0], s.unacked[i:]...)
	}
}

// redialLocked dials a fresh connection with backoff + jitter, replays
// the unacked window onto it, and re-closes the send side if CloseSend
// already happened. Called with s.mu held (the backoff sleeps under
// the lock: the whole session is down, serializing is correct).
func (s *Session) redialLocked(hint time.Duration) error {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
	var lastErr error
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if attempt > 0 || hint > 0 {
			d := s.opts.BaseDelay << max(attempt-1, 0)
			if d > s.opts.MaxDelay || d <= 0 {
				d = s.opts.MaxDelay
			}
			// Full jitter on the upper half: d/2 + uniform[0, d/2].
			d = d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
			if hint > d {
				d = hint
			}
			time.Sleep(d)
		}
		c, err := DialWith(s.base, DialOptions{
			Dial:   s.opts.Dial,
			Header: map[string]string{"X-Stream-Session": s.opts.ID},
		})
		if err != nil {
			lastErr = err
			continue
		}
		if err := s.replayOnto(c); err != nil {
			_ = c.Close()
			lastErr = err
			continue
		}
		s.conn = c
		s.wireSeq = s.nextSeq
		s.redials++
		return nil
	}
	s.err = fmt.Errorf("streamclient: session %q: reconnect failed after %d attempts: %w",
		s.opts.ID, s.opts.MaxAttempts, lastErr)
	return s.err
}

// replayOnto writes the unacked window to a fresh conn and flushes, so
// the server's acks (dups for anything already applied) start flowing.
func (s *Session) replayOnto(c *Conn) error {
	for _, ev := range s.unacked {
		if err := c.Send(ev); err != nil {
			return err
		}
	}
	if s.sendClosed {
		return c.CloseSend()
	}
	return c.Flush()
}

// CloseSend ends the sending half once every unacked event is on the
// wire; the server settles and streams out the remaining results, then
// ends the response. If the connection is down, the next reconnect
// replays the window and re-closes.
func (s *Session) CloseSend() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.sendClosed = true
	if s.conn == nil {
		return nil
	}
	if err := s.conn.CloseSend(); err != nil {
		// Transport death here is recoverable: drop the conn and let
		// Recv's reconnect replay + re-close.
		_ = s.conn.Close()
		s.conn = nil
	}
	return nil
}

// Close tears the session down. Unacked events are abandoned
// client-side (the server applies whatever it read — reconnect later
// with the same ID and its applied set still dedups).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = fmt.Errorf("streamclient: session closed")
	}
	if s.conn != nil {
		err := s.conn.Close()
		s.conn = nil
		return err
	}
	return nil
}

// Dups reports how many Dup-marked results this session has received —
// each one is an event the exactly-once dedup kept from being applied
// twice.
func (s *Session) Dups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dups
}

// Redials reports how many connections the session has opened
// (including the first).
func (s *Session) Redials() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.redials
}
