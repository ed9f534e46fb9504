package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef names one reported metric. The two tables below are the
// program's copy of BENCHMARK.json's end_to_end and per_layer lists
// (TestMetricTablesMatchBenchmarkJSON keeps them equal); moves says
// which end-to-end metric a layer metric should move, on which
// workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd is what --trace 0 reports, measured with tracing off: the
// figures steady enough on a shared host to gate a change. Throughput,
// ack latency, snapshot latency and CPU per event are printed by every
// run and reported by the traced run as loadgen.* (see NOTES.md).
var endToEnd = []metricDef{
	{name: "allocs_per_event", unit: "count"},
	{name: "peak_mem_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// perLayer is what --trace 1 reports. A layer that does no work on a
// workload reports 0 there. The user-visible figures a layer should
// move (events_per_s, ack_p50_us, ...) are the ones every measured run
// prints, reported here as loadgen.*.
var perLayer = []metricDef{
	{"loadgen.events_per_s", "events/s", "user-visible throughput, rung 0 (untraced), every workload"},
	{"loadgen.cpu_us_per_event", "us", "user-visible CPU cost, rung 0 (untraced), every workload"},
	{"loadgen.ack_p50_us", "us", "user-visible ack latency, rung 1 paced phase, every workload"},
	{"loadgen.snapshot_p50_ms", "ms", "user-visible snapshot latency beside writes, rung 1, every workload"},
	{"loadgen.ack_p99_us", "us", "the ack tail: head-of-line blocking on churn-resolve, group commit on flash-durable"},
	{"loadgen.late_p99_us", "us", "validates ack_* on every workload"},
	{"loadgen.ack_samples", "count", "sample count behind ack_p50_us and loadgen.ack_p99_us"},
	{"streamclient.send_ns_per_event", "ns", "cpu_us_per_event on ingest-uniform"},
	{"httpserve.self_ns_per_event", "ns", "events_per_s, cpu_us_per_event on ingest-uniform"},
	{"httpserve.wire_bytes_per_event", "B", "events_per_s, cpu_us_per_event on ingest-uniform"},
	{"httpserve.events_per_write", "count", "cpu_us_per_event (unpaced) on ingest-uniform"},
	{"httpserve.events_per_write_paced", "count", "ack_p50_us (paced) on ingest-uniform"},
	{"ladder.untraced_ns_per_event", "ns", "the untraced HTTP closed loop the ladder is checked against"},
	{"ladder.http_ns_per_event", "ns", "rung 1: events_per_s on every workload"},
	{"ladder.http_allocs_per_event", "count", "rung 1: allocs_per_event on every workload"},
	{"cluster.ns_per_event", "ns", "events_per_s on ingest-uniform"},
	{"cluster.self_ns_per_event", "ns", "events_per_s on ingest-uniform"},
	{"cluster.allocs_per_event", "count", "allocs_per_event on ingest-uniform"},
	{"cluster.events_per_batch", "count", "events_per_s on ingest-uniform"},
	{"cluster.submit_wait_ns_per_event", "ns", "loadgen.ack_p99_us on churn-resolve"},
	{"cluster.shard_skew", "ratio", "events_per_s on flash-durable"},
	{"headend.ns_per_event", "ns", "cpu_us_per_event on ingest-uniform"},
	{"headend.allocs_per_event", "count", "cpu_us_per_event on ingest-uniform"},
	{"headend.admit_frac", "fraction", "cpu_us_per_event on ingest-uniform"},
	{"headend.resolve_ms_p50", "ms", "events_per_s, loadgen.ack_p99_us on churn-resolve"},
	{"headend.resolve_ms_max", "ms", "events_per_s, loadgen.ack_p99_us on churn-resolve"},
	{"headend.install_frac", "fraction", "events_per_s, loadgen.ack_p99_us on churn-resolve"},
	{"core.solve_ms_p50", "ms", "events_per_s, loadgen.ack_p99_us on churn-resolve"},
	{"catalog.calls_per_event", "count", "events_per_s, ack_p50_us on flash-durable and fleet-router"},
	{"catalog.ops_per_call", "count", "events_per_s, ack_p50_us on flash-durable and fleet-router"},
	{"catalog.acquire_us_p50", "us", "events_per_s, ack_p50_us on flash-durable and fleet-router"},
	{"catalog.settle_us_p50", "us", "events_per_s, ack_p50_us on flash-durable and fleet-router"},
	{"catalog.busy_ns_per_event", "ns", "events_per_s, ack_p50_us on flash-durable and fleet-router"},
	{"remote.rtt_us_p50", "us", "events_per_s on fleet-router"},
	{"remote.wire_us_p50", "us", "events_per_s on fleet-router"},
	{"wal.self_ns_per_event", "ns", "events_per_s, loadgen.ack_p99_us on flash-durable"},
	{"wal.events_per_datasync", "count", "events_per_s, loadgen.ack_p99_us on flash-durable"},
	{"wal.datasync_us_p50", "us", "events_per_s, loadgen.ack_p99_us on flash-durable"},
	{"wal.datasync_us_p99", "us", "events_per_s, loadgen.ack_p99_us on flash-durable"},
	{"wal.bytes_per_event", "B", "events_per_s, loadgen.ack_p99_us on flash-durable"},
	{"wal.writes_per_event", "count", "events_per_s, loadgen.ack_p99_us on flash-durable"},
	{"wal.recover_s", "s", "restart time on flash-durable"},
	{"wal.recover_events_per_s", "events/s", "wal.recover_s on flash-durable"},
	{"fleet.forward_us_per_event", "us", "events_per_s on fleet-router"},
	{"fleet.upstream_writes_per_event", "count", "events_per_s on fleet-router"},
	{"runtime.gc_cpu_frac", "fraction", "cpu_us_per_event, loadgen.ack_p99_us on every workload"},
	{"trace.overhead_frac", "fraction", "traced versus untraced events_per_s; also the ladder's gap to the untraced per-event time"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: what the final JSON line carries, plus
// the human-readable lines printed before it.
type report struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	values    map[string]float64
	info      []string // extra human-readable lines
}

func newReport() *report {
	return &report{correct: true, values: make(map[string]float64)}
}

// fail records a failed output check; the run then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// write prints the human-readable table and then, as the last line,
// the JSON result holding exactly the metrics of defs.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(w, "  %-34s %16.4f %-9s -> %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// environment is the host stamp every result carries.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	WALDir     string `json:"wal_dir"`
	WALFS      string `json:"wal_fs"`
	Flag       string `json:"flag,omitempty"`
}

// stampEnvironment records the host. A WAL on tmpfs or ramfs makes
// fdatasync free, so its durable numbers measure no disk: the stamp
// flags it, and the line is printed with every result.
func stampEnvironment(walDir string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel(),
		WALDir:     walDir,
		WALFS:      fsType(walDir),
	}
	if env.WALFS == "tmpfs" || env.WALFS == "ramfs" {
		env.Flag = "wal-on-memory-fs: fdatasync is free, durable numbers measure no disk"
	}
	return env
}

func (e environment) String() string {
	b, _ := json.Marshal(e)
	return "env " + string(b)
}

// writeSpans writes the traced run's spans, one JSON object per line,
// after the environment stamp.
func writeSpans(path string, env environment, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(env)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
