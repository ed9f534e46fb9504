// Command mmdbench runs the full experiment suite (E1-E17 plus the
// ablations A1-A3, see DESIGN.md section 4) and prints the results as
// Markdown — the tables recorded in EXPERIMENTS.md.
//
// With -json it instead runs the serving-path benchmark suite
// (guarded admission rescan vs ledger, the end-to-end online policy
// sweep, and the cluster workload/ack benchmarks) via testing.Benchmark
// and writes a machine-readable baseline — ns/op, allocs/op, B/op, and
// events/op — to the given file (conventionally BENCH_serving.json at
// the repo root), so successive PRs have a trajectory to diff against.
// The baseline's "saturation" section is the scaling curve: the
// concurrent-submitter harness swept over a shards x GOMAXPROCS grid,
// each cell reporting acked events/sec and p50/p99 ack latency
// (-sat-shards, -sat-procs, -sat-rounds tune the sweep; -sat-workload
// swaps the uniform session workload for a generator schedule). The
// "durability" section prices the WAL: StreamIngest/stream rerun with
// each sync policy journaling before the ack, each as a ratio of the
// WAL-off reference. The "workloads" section records the
// generator-driven ingestion runs (Zipf flash crowd, diurnal churn)
// against a catalog-enabled fleet.
//
// Usage:
//
//	mmdbench                        # run every experiment
//	mmdbench -only E5               # run one experiment
//	mmdbench -json BENCH_serving.json  # write the serving perf baseline
//	mmdbench -json out.json -sat-shards 1,8 -sat-procs 2 -sat-rounds 1
//	mmdbench -json out.json -sat-workload zipf-flash
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E17, A1..A3)")
	jsonPath := flag.String("json", "", "write the serving benchmark baseline to this file instead of running experiments")
	satShards := flag.String("sat-shards", "1,2,4,8", "comma-separated shard counts for the saturation sweep")
	satProcs := flag.String("sat-procs", "1,2,4,8", "comma-separated GOMAXPROCS values for the saturation sweep")
	satRounds := flag.Int("sat-rounds", 2, "workload rounds per saturation cell")
	satWorkload := flag.String("sat-workload", "", "generator workload for the saturation sweep (zipf-flash, diurnal; empty = uniform sessions)")
	flag.Parse()
	if *jsonPath != "" {
		if err := writeServingBaseline(*jsonPath, *satShards, *satProcs, *satRounds, *satWorkload); err != nil {
			fmt.Fprintln(os.Stderr, "mmdbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*only); err != nil {
		fmt.Fprintln(os.Stderr, "mmdbench:", err)
		os.Exit(1)
	}
}

func run(only string) error {
	start := time.Now()
	tables, err := experiments.All()
	if err != nil {
		return err
	}
	printed := 0
	for _, t := range tables {
		if only != "" && !strings.EqualFold(t.ID, only) {
			continue
		}
		fmt.Println(t.Markdown())
		printed++
	}
	if only != "" && printed == 0 {
		return fmt.Errorf("no experiment named %q", only)
	}
	fmt.Printf("---\n%d experiments in %v\n", printed, time.Since(start).Round(time.Millisecond))
	return nil
}

// benchRecord is one benchmark's snapshot in the JSON baseline.
type benchRecord struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	EventsPerOp float64 `json:"events_per_op,omitempty"`
	// EventsPerSec is reported by the ingestion benchmarks
	// (StreamIngest/*) — the serving API v4 acceptance metric.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// saturationRecord is one cell of the baseline's scaling curve: the
// concurrent-submitter session workload measured at one
// (shards, GOMAXPROCS) setting.
type saturationRecord struct {
	// Workload names the generator schedule driven through the cell;
	// empty means the uniform session workload.
	Workload     string  `json:"workload,omitempty"`
	Shards       int     `json:"shards"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	Submitters   int     `json:"submitters"`
	Events       int     `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AckP50Ms and AckP99Ms are histogram-quantile upper bounds on
	// per-call ack latency, in milliseconds.
	AckP50Ms float64 `json:"ack_p50_ms"`
	AckP99Ms float64 `json:"ack_p99_ms"`
}

// durabilityRecord is one WAL-on ingestion measurement: the
// StreamIngest/stream workload with the named sync policy journaling
// every event before the ack.
type durabilityRecord struct {
	Sync         string  `json:"sync"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	// RatioVsOff is this run's events/sec over the WAL-off reference —
	// the fraction of throughput the durability policy preserves.
	RatioVsOff float64 `json:"ratio_vs_off"`
}

// durabilitySection records the WAL's price on the hot ingest path:
// the WAL-off StreamIngest/stream reference and the same run under
// each sync policy. The acceptance bar (sync=batch >= 0.70 of WAL-off)
// is checked against this section by TestBenchServingBaselineSchema.
type durabilitySection struct {
	WALOffEventsPerSec float64            `json:"wal_off_events_per_sec"`
	SyncPolicies       []durabilityRecord `json:"sync_policies"`
	Note               string             `json:"note"`
}

// servingBaseline is the BENCH_serving.json document.
type servingBaseline struct {
	Command    string `json:"command"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// NumCPU records the host parallelism the saturation sweep's
	// GOMAXPROCS axis should be read against.
	NumCPU     int                    `json:"num_cpu"`
	Benchmarks map[string]benchRecord `json:"benchmarks"`
	// Workloads snapshots the generator-driven ingestion benchmarks
	// (WorkloadIngest/*), keyed by workload kind.
	Workloads  map[string]benchRecord `json:"workloads"`
	Durability *durabilitySection     `json:"durability"`
	Saturation []saturationRecord     `json:"saturation"`
}

// parseGrid parses a comma-separated list of positive ints.
func parseGrid(flagName, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-%s: bad value %q", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeServingBaseline(path, satShards, satProcs string, satRounds int, satWorkload string) error {
	shardGrid, err := parseGrid("sat-shards", satShards)
	if err != nil {
		return err
	}
	procGrid, err := parseGrid("sat-procs", satProcs)
	if err != nil {
		return err
	}
	base := servingBaseline{
		Command:    "mmdbench -json",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: map[string]benchRecord{},
		Workloads:  map[string]benchRecord{},
	}
	for _, bench := range benchkit.ServingBenchmarks() {
		fmt.Fprintf(os.Stderr, "benchmarking %s...\n", bench.Name)
		res := testing.Benchmark(bench.F)
		if res.N == 0 {
			return fmt.Errorf("benchmark %s did not run (failed inside testing.Benchmark)", bench.Name)
		}
		rec := benchRecord{
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if v, ok := res.Extra["events/op"]; ok {
			rec.EventsPerOp = v
		}
		if v, ok := res.Extra["events/sec"]; ok {
			rec.EventsPerSec = v
		}
		base.Benchmarks[bench.Name] = rec
	}
	for _, bench := range benchkit.WorkloadBenchmarks() {
		fmt.Fprintf(os.Stderr, "benchmarking %s...\n", bench.Name)
		res := testing.Benchmark(bench.F)
		if res.N == 0 {
			return fmt.Errorf("benchmark %s did not run (failed inside testing.Benchmark)", bench.Name)
		}
		rec := benchRecord{
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if v, ok := res.Extra["events/op"]; ok {
			rec.EventsPerOp = v
		}
		if v, ok := res.Extra["events/sec"]; ok {
			rec.EventsPerSec = v
		}
		base.Workloads[strings.TrimPrefix(bench.Name, "WorkloadIngest/")] = rec
	}
	walOff := base.Benchmarks["StreamIngest/stream"].EventsPerSec
	base.Durability = &durabilitySection{
		WALOffEventsPerSec: walOff,
		Note: "StreamIngest/stream with per-shard WAL journaling before the ack, " +
			"per sync policy, vs the WAL-off reference above. Ratios are from one " +
			"host — read them against this file's num_cpu stamp: on a single-CPU " +
			"host the device flush stalls the serving path's only core (committer " +
			"overlap needs a second CPU), so group commit amortizes less than it " +
			"would with real parallelism. Acceptance: sync=batch ratio_vs_off " +
			">= 0.70 with num_cpu > 1, >= 0.45 (the measured single-core floor) " +
			"with num_cpu == 1.",
	}
	for _, bench := range benchkit.DurabilityBenchmarks() {
		fmt.Fprintf(os.Stderr, "benchmarking %s...\n", bench.Name)
		res := testing.Benchmark(bench.F)
		if res.N == 0 {
			return fmt.Errorf("benchmark %s did not run (failed inside testing.Benchmark)", bench.Name)
		}
		rec := durabilityRecord{
			Sync:       strings.TrimPrefix(bench.Name, "StreamIngestWAL/"),
			Iterations: res.N,
			NsPerOp:    float64(res.T.Nanoseconds()) / float64(res.N),
		}
		if v, ok := res.Extra["events/sec"]; ok {
			rec.EventsPerSec = v
		}
		if walOff > 0 {
			rec.RatioVsOff = rec.EventsPerSec / walOff
		}
		base.Durability.SyncPolicies = append(base.Durability.SyncPolicies, rec)
	}
	for _, s := range shardGrid {
		for _, p := range procGrid {
			fmt.Fprintf(os.Stderr, "saturating shards=%d gomaxprocs=%d...\n", s, p)
			pt, err := benchkit.SaturateWorkload(s, p, satRounds, satWorkload)
			if err != nil {
				return fmt.Errorf("saturation shards=%d procs=%d: %w", s, p, err)
			}
			base.Saturation = append(base.Saturation, saturationRecord{
				Workload:     satWorkload,
				Shards:       pt.Shards,
				GoMaxProcs:   pt.GoMaxProcs,
				Submitters:   pt.Submitters,
				Events:       pt.Events,
				EventsPerSec: pt.EventsPerSec,
				AckP50Ms:     pt.AckP50Micros / 1e3,
				AckP99Ms:     pt.AckP99Micros / 1e3,
			})
		}
	}
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmarks and %d saturation cells to %s\n", len(base.Benchmarks), len(base.Saturation), path)
	return nil
}
