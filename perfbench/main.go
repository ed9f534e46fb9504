// Command perfbench is the serving benchmark. One run drives one
// seeded workload through the real serving stack on loopback — stream
// client, HTTP front end, router, cluster, catalog, WAL and solver,
// each reached only through its public functions — checks that every
// output is correct, and prints its metrics; the last line of standard
// output is one JSON object.
//
//	perfbench --workload ingest-uniform --seed 1 --seconds 25 --trace 0
//
// --workload all runs every workload in turn, each in its own process,
// and exits non-zero if any output check failed.
//
// --trace 0 measures the end-to-end metrics with nothing wrapped.
// --trace 1 runs the per-layer ladder instead (ladder.go) and writes
// its spans under --out. The exit code is 0 only when every output
// check passed. NOTES.md says why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() { os.Exit(exitCode()) }

func exitCode() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the workload's traffic")
	seconds := flag.Int("seconds", 25, "measuring time of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ladder")
	out := flag.String("out", ".bench_out", "directory for the WAL and the span files")
	flag.Parse()

	w, ok := workloadByName(*name)
	if (!ok && *name != "all") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v, or all), --seconds >= 1, --trace 0|1\n", names)
		return 2
	}
	if *name == "all" {
		return runAll()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: float64(*seconds), outDir: *out}
	env := stampEnvironment(*out)

	var rep *report
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		var spans []span
		rep, spans, err = runTraced(w, cfg)
		if err == nil {
			// One file per workload, replaced by its next traced run,
			// so repeated runs do not pile up span files.
			path := filepath.Join(*out, fmt.Sprintf("spans-%s.jsonl", w.name))
			err = writeSpans(path, env, spans)
			rep.infof("spans written to %s", path)
		}
	} else {
		rep, err = runMeasured(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(env)
	if err := rep.write(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// runAll runs every workload with the same flags, each in a process of
// its own so that one workload's memory peak and garbage do not reach
// the next, and fails if any of them fails.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var failed []string
	for _, w := range workloads {
		args := []string{"--workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		fmt.Printf("perfbench: %d of %d workloads failed: %v\n", len(failed), len(workloads), failed)
		return 1
	}
	return 0
}
