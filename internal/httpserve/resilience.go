package httpserve

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	videodist "repro"
)

// Options configures the resilience behaviors of the handler. The zero
// value is the pre-chaos handler: no shedding, no stream write
// deadline. Exactly-once resume takes no option: the cluster owns every
// session, recovered ones included.
type Options struct {
	// ShedP99 is the overload threshold: when the rolling p99 of ack
	// latency on the event and batch endpoints crosses it, the server
	// sheds — event, batch, and new stream requests get a fast 503 with
	// a Retry-After instead of queueing behind a saturated fleet. Block
	// backpressure keeps per-connection flow control; shedding is the
	// fleet-wide analog (shed, don't collapse). 0 disables.
	ShedP99 time.Duration
	// RetryAfter is the hint sent while shedding and the cool-off
	// before traffic is admitted again to probe (default 1s).
	RetryAfter time.Duration
	// StreamWriteTimeout bounds each write on a /v1/stream response. A
	// consumer that stops reading parks the response write; without a
	// deadline that pins the handler goroutine and its whole in-flight
	// window forever. On timeout the connection is severed and every
	// submitted event still settles through the worker-FIFO path
	// (references included). 0 disables.
	StreamWriteTimeout time.Duration
}

// server is the handler state behind NewHandlerOpts: the cluster and
// the overload governor. The data plane lives in the cluster, resumable
// sessions included — this state is only about the transport (when to
// say "not now").
type server struct {
	c    *videodist.Cluster
	opts Options
	gov  *governor // nil when shedding is disabled
}

// NewHandlerOpts returns the ingestion front end with resilience
// options; NewHandler(c) is NewHandlerOpts(c, Options{}).
func NewHandlerOpts(c *videodist.Cluster, opts Options) http.Handler {
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	s := &server{c: c, opts: opts}
	if opts.ShedP99 > 0 {
		s.gov = newGovernor(opts.ShedP99, opts.RetryAfter)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{id}/events", s.handleEvent)
	mux.HandleFunc("POST /v1/tenants/{id}/events:batch", s.handleBatch)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("POST /v1/admin/reshard", func(w http.ResponseWriter, r *http.Request) {
		handleReshard(c, w, r)
	})
	mux.HandleFunc("GET /v1/fleet/snapshot", func(w http.ResponseWriter, r *http.Request) {
		handleSnapshot(c, w)
	})
	mux.HandleFunc("GET /v1/catalog", func(w http.ResponseWriter, r *http.Request) {
		handleCatalog(c, w)
	})
	return mux
}

// shed writes the fast 503 + Retry-After and reports true when the
// governor is tripped. Callers return immediately on true — the point
// of shedding is to not touch the saturated data plane at all.
func (s *server) shed(w http.ResponseWriter) bool {
	if s.gov == nil || !s.gov.shedding() {
		return false
	}
	s.writeShed(w)
	return true
}

// writeShed writes the shed 503 unconditionally.
func (s *server) writeShed(w http.ResponseWriter) {
	secs := int(math.Ceil(s.opts.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("overloaded: ack p99 over %v, shedding; retry after %ds", s.opts.ShedP99, secs))
}

// observe feeds one successful ack latency to the governor.
func (s *server) observe(start time.Time) {
	if s.gov != nil {
		s.gov.observe(time.Since(start))
	}
}

// govRecompute is how many observations ride between p99 recomputes —
// the quantile sorts its window, so it runs at a sampled cadence.
const govRecompute = 32

// govWindow is how many of the latest ack latencies the p99 is read
// from.
const govWindow = 256

// governor trips load shedding from a rolling ack-latency quantile.
// While tripped, requests are rejected before reaching the cluster, so
// no new observations arrive; once RetryAfter passes, traffic is
// admitted again and the next recompute decides whether the overload
// has actually drained (fresh fast acks push the old tail out of the
// window) or shedding re-trips.
type governor struct {
	threshold  time.Duration
	retryAfter time.Duration
	now        func() time.Time // test hook

	mu sync.Mutex
	// buf is a ring of the latest govWindow ack latencies in seconds;
	// observation i lands in slot i%govWindow, so obs (the number of
	// observations so far) locates the ring's head and its fill.
	buf       [govWindow]float64
	obs       int
	shedUntil time.Time
}

func newGovernor(threshold, retryAfter time.Duration) *governor {
	return &governor{
		threshold:  threshold,
		retryAfter: retryAfter,
		now:        time.Now,
	}
}

func (g *governor) observe(d time.Duration) {
	g.mu.Lock()
	g.buf[g.obs%govWindow] = d.Seconds()
	g.obs++
	if g.obs%govRecompute == 0 && g.p99Locked() >= g.threshold.Seconds() {
		g.shedUntil = g.now().Add(g.retryAfter)
	}
	g.mu.Unlock()
}

// p99Locked returns the nearest-rank p99 of the window. Callers hold mu
// and have observed at least once.
func (g *governor) p99Locked() float64 {
	n := min(g.obs, govWindow)
	var sorted [govWindow]float64
	w := sorted[:n]
	copy(w, g.buf[:n])
	slices.Sort(w)
	return w[int(0.99*float64(n-1)+0.5)]
}

func (g *governor) shedding() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now().Before(g.shedUntil)
}
