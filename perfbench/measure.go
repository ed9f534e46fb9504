package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	videodist "repro"
	"repro/internal/mmd"
	"repro/streamclient"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	outDir  string // everything the run writes lives here
}

// setupRepeats is how many times a run builds its deployment to time
// set-up; the median is reported and the last build serves the run.
const setupRepeats = 31

// run is the state one workload run shares between its phases.
type run struct {
	w         *workload
	cfg       config
	instances []*mmd.Instance
	cycle     []streamclient.Event
	walSeq    int
}

func newRun(w *workload, cfg config) (*run, error) {
	instances, err := w.instances()
	if err != nil {
		return nil, err
	}
	cycle, err := w.schedule(w, instances, cfg.seed)
	if err != nil {
		return nil, err
	}
	if len(cycle) == 0 {
		return nil, fmt.Errorf("%s: empty schedule", w.name)
	}
	return &run{w: w, cfg: cfg, instances: instances, cycle: cycle}, nil
}

// walDir names a fresh log directory under the run's output directory.
func (r *run) walDir() string {
	if !r.w.durable {
		return ""
	}
	r.walSeq++
	return filepath.Join(r.cfg.outDir, "wal", fmt.Sprintf("%s-seed%d-pid%d-%d", r.w.name, r.cfg.seed, os.Getpid(), r.walSeq))
}

// session is one running deployment with the load generator attached.
type session struct {
	st    *stack
	g     *loadgen
	model *carriage // outcome model of a single-process catalog fleet
	done  bool      // the stream is closed
}

// start builds the deployment and dials the load generator. The
// returned duration is set-up: from the first call into the serving
// stack until the first event can be sent.
func (r *run) start(h hooks) (*session, time.Duration, error) {
	s := &session{}
	var observe func(int, []byte)
	if r.w.catalog && !r.w.fleet {
		s.model = newCarriage(r.w, r.cycle)
		observe = s.model.observe
	}
	t0 := time.Now()
	st, err := r.w.startStack(r.instances, r.walDir(), h)
	if err != nil {
		return nil, 0, err
	}
	s.st = st
	s.g, err = dialLoadgen(st.url, r.cycle, observe)
	d := time.Since(t0)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, d, nil
}

// closeStream ends the load generator's stream.
func (s *session) closeStream() error {
	if s.done {
		return nil
	}
	s.done = true
	return s.g.close()
}

// stop tears everything down and deletes the log. Safe to repeat.
func (s *session) stop() error {
	err := s.closeStream()
	if cerr := s.st.close(); err == nil {
		err = cerr
	}
	if rerr := removeWAL(s.st.walDir); err == nil {
		err = rerr
	}
	return err
}

// startTimed builds the deployment setupRepeats times, tearing down all
// but the last, and returns the last with the median set-up time.
func (r *run) startTimed() (*session, float64, error) {
	var setups []float64
	for k := 0; ; k++ {
		runtime.GC() // earlier garbage is not this set-up's cost
		s, d, err := r.start(hooks{})
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
		if k == setupRepeats-1 {
			return s, median(setups), nil
		}
		if err := s.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// fetchSnapshot reads the deployment's fleet snapshot over HTTP, the
// way an operator would.
func fetchSnapshot(url string) (*videodist.FleetSnapshot, error) {
	resp, err := http.Get(url + "/v1/fleet/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot: %s", resp.Status)
	}
	var fs videodist.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &fs, nil
}

// pacedWithPolls runs the paced phase with snapshot polls beside it.
func (s *session) pacedWithPolls(w *workload, d time.Duration) (openLoop, *snapshotPolls, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pollDone := make(chan *snapshotPolls, 1)
	go func() { pollDone <- pollSnapshots(ctx, s.st.url, w.snapshotRate) }()
	open, err := s.g.paced(w.pacedRate, d)
	cancel()
	return open, <-pollDone, err
}

// recovery is what restarting a durable fleet from its log cost.
type recovery struct {
	seconds float64
	events  int
}

// checkOutputs closes the stream and checks everything the run
// produced: every event acked once and in order with no error line,
// a feasible fleet, and then per workload the final tables against a
// single-event reference, or — where SharedOrigin pricing makes a
// pipelined stream's outcome depend on timing — the catalog's
// references against the carriage the results report, and the
// recovered fleet against the live one. The stack is closed on return.
func (r *run) checkOutputs(s *session, rep *report) (recovery, error) {
	sent := s.g.sent
	if err := s.closeStream(); err != nil {
		rep.fail("stream close: %v", err)
	}
	if n := s.g.failures(); n > 0 {
		rep.fail("%d failed or out-of-order results; first error line: %s", n, s.g.firstError())
	}
	final, err := fetchSnapshot(s.st.url)
	if err != nil {
		return recovery{}, err
	}
	if !final.AllFeasible {
		rep.fail("fleet infeasible at the end of the run")
	}
	switch {
	case s.model != nil:
		if err := s.model.check(final.Catalog); err != nil {
			rep.fail("at the end of the run: %v", err)
		}
		if r.w.durable {
			return r.checkRecovery(s, final, rep)
		}
	case r.w.fleet:
		if err := s.st.close(); err != nil {
			return recovery{}, err
		}
		want, err := serialReference(r.w, r.instances, r.cycle, sent)
		if err != nil {
			return recovery{}, err
		}
		if got, ref := renders(final), renders(want); got != ref {
			rep.fail("fleet tables differ from the one-process serial reference: %s", firstDiff(got, ref))
		}
	default:
		if err := s.st.close(); err != nil {
			return recovery{}, err
		}
		tenants, err := directReplay(r.instances, r.cycle, sent, nil)
		if err != nil {
			return recovery{}, err
		}
		if got, ref := final.RenderTenants(), tenantRender(tenants); got != ref {
			rep.fail("tenant tables differ from the single-event reference: %s", firstDiff(got, ref))
		}
	}
	return recovery{}, s.stop()
}

// checkRecovery closes the durable fleet (sealing its log), recovers
// it from the WAL, and checks the recovered render equals the live one.
// The recovery time runs from RecoverCluster until the fleet is ready.
func (r *run) checkRecovery(s *session, live *videodist.FleetSnapshot, rep *report) (recovery, error) {
	if err := s.st.close(); err != nil {
		return recovery{}, err
	}
	runtime.GC()
	t0 := time.Now()
	rec, rr, err := videodist.RecoverCluster(r.w.tenantConfigs(r.instances), r.w.clusterOptions(s.st.walDir, hooks{}))
	if err != nil {
		return recovery{}, fmt.Errorf("recover: %w", err)
	}
	out := recovery{seconds: time.Since(t0).Seconds(), events: rr.Events}
	fs, err := rec.Snapshot()
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return recovery{}, err
	}
	if got, want := renders(fs), renders(live); got != want {
		rep.fail("recovered fleet differs from the live one: %s", firstDiff(got, want))
	}
	return out, s.stop()
}

// ackWindow is the paced phase's percentile window, in events: the
// fewest that let a p99 have 10 samples beyond it. Ack percentiles are
// medians over consecutive windows, so one stall moves one window.
const ackWindow = 1000

// phasePairs is how many unpaced and paced segments a run alternates.
// The host's speed drifts over seconds, and alternating lets both
// phases sample all of the run instead of one half each.
const phasePairs = 5

// segments divides a run's measuring time into phasePairs unpaced
// segments (the first 4% of each a warm-up) and as many paced ones.
func segments(seconds float64) (unpaced, warm, paced time.Duration) {
	seg := time.Duration(seconds*float64(time.Second)) / (2 * phasePairs)
	return seg, seg / 25, seg
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runMeasured is the --trace 0 run: set-up, alternating unpaced and
// paced segments (snapshot polls beside the paced ones), then the
// output checks.
func runMeasured(w *workload, cfg config) (*report, error) {
	r, err := newRun(w, cfg)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	s, setup, err := r.startTimed()
	if err != nil {
		return nil, err
	}
	defer func() { s.stop() }()
	// sp carries the paced segments. The recovery check replays a
	// fleet's whole log and holds all of it in memory, about 1.6 KB per
	// event, so a durable fleet that also took the unpaced traffic would
	// need gigabytes. The durable workload paces a second fleet, whose
	// log the check recovers; the unpaced one is checked for carriage
	// and discarded.
	sp := s
	if w.durable {
		if sp, _, err = r.start(hooks{}); err != nil {
			return nil, err
		}
		defer func() { sp.stop() }()
	}
	unpacedFor, warm, pacedFor := segments(cfg.seconds)

	runtime.GC()
	var closed closedLoop
	// The paced segments' samples are reduced to per-window and
	// per-segment percentiles as each segment ends, so the generator's
	// memory does not grow with the run and into peak_mem_mb.
	var pacedEvents int
	var winP50, winP99, lateP99 []float64
	polls := &snapshotPolls{}
	var cpu time.Duration
	var allocs uint64
	// Peak memory of serving is taken per segment pair, each starting
	// from the memory the program retains, and the median reported. The
	// peak of a whole run is one extreme of the garbage collector's
	// timing; its ten-seed spread reached 0.235 on flash-durable.
	var peaksMB []float64
	for k := 0; k < phasePairs; k++ {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("peak memory: %w", err)
		}
		cpu0, m0 := cpuTime(), mallocs()
		seg, err := s.g.unpaced(unpacedFor, warm, w.unpacedCap/phasePairs)
		if err != nil {
			return nil, fmt.Errorf("unpaced segment %d: %w", k, err)
		}
		allocs += mallocs() - m0
		cpu += cpuTime() - cpu0
		closed.events += seg.events
		closed.elapsed += seg.elapsed
		closed.windowRates = append(closed.windowRates, seg.windowRates...)

		// Quiescent: every result is in. A catalog fleet's references
		// must match its carriage here, mid-schedule, not only once the
		// schedule drained.
		if s.model != nil {
			fs, err := s.st.cluster.Snapshot()
			if err != nil {
				return nil, err
			}
			if err := s.model.check(fs.Catalog); err != nil {
				rep.fail("after unpaced segment %d: %v", k, err)
			}
		}

		cpu1 := cpuTime()
		o, p, err := sp.pacedWithPolls(w, pacedFor)
		if err != nil {
			return nil, fmt.Errorf("paced segment %d: %w", k, err)
		}
		cpu += cpuTime() - cpu1
		pacedEvents += o.events
		p50s, ok50 := windowQuantiles(o.latencyUs, ackWindow, 0.50)
		p99s, ok99 := windowQuantiles(o.latencyUs, ackWindow, 0.99)
		late, okLate := percentile(o.lateUs, 0.99)
		if !ok50 || !ok99 || !okLate {
			return nil, fmt.Errorf("paced segment %d: too few samples for the reported percentiles: %d acks", k, o.events)
		}
		winP50, winP99 = append(winP50, p50s...), append(winP99, p99s...)
		lateP99 = append(lateP99, late)
		polls.durMs = append(polls.durMs, p.durMs...)
		polls.failures += p.failures
		peak, err := peakRSSBytes()
		if err != nil {
			return nil, fmt.Errorf("peak memory: %w", err)
		}
		peaksMB = append(peaksMB, float64(peak)/(1<<20))
	}

	var priorSent, priorFailed int
	if sp != s {
		priorSent, priorFailed = s.g.sent, s.g.failures()
		if priorFailed > 0 {
			rep.fail("unpaced fleet: %d failed or out-of-order results; first error line: %s", priorFailed, s.g.firstError())
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	rep.attempted = priorSent + sp.g.sent + len(polls.durMs) + polls.failures
	rep.failed = priorFailed + sp.g.failures() + polls.failures
	if polls.failures > 0 {
		rep.fail("%d snapshot polls failed", polls.failures)
	}
	rec, err := r.checkOutputs(sp, rep)
	if err != nil {
		return nil, err
	}

	snap50, okSnap := percentile(polls.durMs, 0.50)
	if !okSnap {
		return nil, fmt.Errorf("too few samples for the snapshot percentile: %d snapshot polls", len(polls.durMs))
	}
	rep.set("allocs_per_event", float64(allocs)/float64(closed.events))
	rep.set("peak_mem_mb", median(peaksMB))
	rep.set("setup_s", setup)

	// The time-based figures are printed, not gated: on a shared
	// two-CPU host their ten-seed spread exceeds any bound a regression
	// gate could use (see NOTES.md). The traced run reports them as
	// loadgen.*.
	windows := len(winP50)
	worst99 := maxOf(winP99)
	rep.infof("workload %s seed %d, %d segment pairs: unpaced %d events in %.2fs (%d windows of %v), paced %d events at %.0f/s, %d snapshot polls",
		w.name, cfg.seed, phasePairs, closed.events, closed.elapsed.Seconds(), len(closed.windowRates), unpacedWindow, pacedEvents, w.pacedRate, len(polls.durMs))
	rep.infof("  events_per_s %16.4f events/s", median(closed.windowRates))
	rep.infof("  cpu_us_per_event %12.4f us", float64(cpu.Nanoseconds())/1e3/float64(closed.events+pacedEvents))
	rep.infof("  ack_p50_us %18.4f us (median of %d windows of %d)", median(winP50), windows, ackWindow)
	rep.infof("  ack_p99_us %18.4f us (median of the same windows); worst window's p99 %.1f us", median(winP99), worst99)
	rep.infof("  snapshot_p50_ms %13.4f ms", snap50)
	rep.infof("  generator late p99 %.1f us (worst segment)", maxOf(lateP99))
	rep.infof("error_rate %.6f (%d of %d attempted)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	if w.durable {
		rep.infof("recover_s %.4f (%d events replayed)", rec.seconds, rec.events)
	}
	return rep, nil
}
