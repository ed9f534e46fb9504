// Benchmarks: one per solver experiment in DESIGN.md section 4 (E1-E9)
// plus the ablations (A1-A3). Each benchmark both times the relevant
// operation and reports the experiment's headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the shape
// of every claim; BenchmarkExperimentSuite runs every table, E10-E17
// included. cmd/mmdbench prints the full tables.
package videodist_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	videodist "repro"
	"repro/internal/baseline"
	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/online"
	"repro/internal/reduction"
	"repro/internal/skew"
	"repro/internal/smd"
)

// BenchmarkE1GreedyRatio times FixedGreedy on unit-skew SMD instances
// and reports the measured worst approximation ratio vs exact OPT
// (Theorem 2.8 bound: 4.746).
func BenchmarkE1GreedyRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	type pair struct {
		in  *smd.Instance
		opt float64
	}
	pairs := make([]pair, 8)
	for i := range pairs {
		min, err := generator.RandomSMD{Streams: 10, Users: 4, Seed: rng.Int63(), Skew: 1}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		opt, err := exact.Solve(min, exact.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pairs[i] = pair{in: smd.FromMMD(min), opt: opt.Value}
	}
	worst := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		res, err := smd.FixedGreedy(p.in)
		if err != nil {
			b.Fatal(err)
		}
		if p.opt > 0 {
			worst = math.Max(worst, p.opt/res.BestValue)
		}
	}
	b.ReportMetric(worst, "worst-ratio")
	b.ReportMetric(3*math.E/(math.E-1), "bound")
}

// BenchmarkE2ReducedBudget times raw greedy and reports the minimum
// augmented-value ratio vs OPT (Theorem 2.5 / Lemma 2.2 bound 1-1/e).
func BenchmarkE2ReducedBudget(b *testing.B) {
	min, err := generator.RandomSMD{Streams: 10, Users: 4, Seed: 102, Skew: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	in := smd.FromMMD(min)
	opt, err := exact.Solve(min, exact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ratio := math.Inf(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := smd.Greedy(in)
		if err != nil {
			b.Fatal(err)
		}
		if opt.Value > 0 {
			ratio = math.Min(ratio, res.AugmentedValue/opt.Value)
		}
	}
	b.ReportMetric(ratio, "min-aug/OPT")
	b.ReportMetric(1-1/math.E, "bound")
}

// BenchmarkE3SkewSweep times classify-and-select at alpha=64 and
// reports the measured ratio vs the Theorem 3.1 bound.
func BenchmarkE3SkewSweep(b *testing.B) {
	in, err := generator.RandomSMD{Streams: 12, Users: 5, Seed: 103, Skew: 64}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	opt, err := exact.Solve(in, exact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _, err := skew.Solve(in, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = a.Utility(in)
	}
	if last > 0 {
		b.ReportMetric(opt.Value/last, "ratio")
	}
}

// BenchmarkE4PipelineRatio times the full Theorem 1.1 pipeline on an
// m=3, mc=2 instance and reports the measured ratio.
func BenchmarkE4PipelineRatio(b *testing.B) {
	in, err := generator.RandomMMD{Streams: 10, Users: 4, M: 3, MC: 2, Seed: 104, Skew: 4}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	opt, err := exact.Solve(in, exact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _, err := core.Solve(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = a.Utility(in)
	}
	if last > 0 {
		b.ReportMetric(opt.Value/last, "ratio")
	}
}

// BenchmarkE5Tightness times the paper-faithful lift on the Section 4.2
// family (m=4, mc=3) and reports the measured loss vs m*mc = 12.
func BenchmarkE5Tightness(b *testing.B) {
	in, err := reduction.TightnessInstance(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	view, err := reduction.ToSMD(in)
	if err != nil {
		b.Fatal(err)
	}
	optAssn := reduction.TightnessOptimal(in)
	optVal := optAssn.Utility(in)
	var loss float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := reduction.Lift(view, optAssn)
		if err != nil {
			b.Fatal(err)
		}
		loss = optVal / rep.Value
	}
	b.ReportMetric(loss, "measured-loss")
	b.ReportMetric(12, "m*mc")
}

// BenchmarkE6OnlineRatio times the online allocator over a full arrival
// sequence and reports the competitive ratio vs exact OPT and the
// Theorem 5.4 bound.
func BenchmarkE6OnlineRatio(b *testing.B) {
	in, err := generator.SmallStreams{
		Base: generator.RandomMMD{Streams: 12, Users: 3, M: 2, MC: 1, Seed: 106, Skew: 2},
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	norm, err := online.Normalize(in)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := exact.Solve(in, exact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, err := online.NewAllocator(norm.Instance, norm.Mu())
		if err != nil {
			b.Fatal(err)
		}
		a := al.RunSequence(nil)
		last = a.Utility(in)
	}
	if last > 0 {
		b.ReportMetric(opt.Value/last, "ratio")
	}
	b.ReportMetric(norm.CompetitiveBound(), "bound")
}

// BenchmarkE7GreedyScaling is the O(n^2) scaling experiment: run with
// -bench 'E7' and compare ns/op across the sub-benchmark sizes.
func BenchmarkE7GreedyScaling(b *testing.B) {
	for _, size := range []struct{ s, u int }{{50, 10}, {100, 20}, {200, 40}, {400, 80}} {
		min, err := generator.RandomSMD{Streams: size.s, Users: size.u, Seed: 107, Skew: 1}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		in := smd.FromMMD(min)
		b.Run(benchName(size.s, size.u), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := smd.FixedGreedy(in); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(size.s * size.u)
			b.ReportMetric(n*n, "n^2")
		})
	}
}

func benchName(s, u int) string {
	return "streams=" + itoa(s) + "/users=" + itoa(u)
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// BenchmarkE8PartialEnum compares greedy against partial enumeration
// with growing seed sizes (quality/time trade-off of Section 2.3).
func BenchmarkE8PartialEnum(b *testing.B) {
	min, err := generator.RandomSMD{Streams: 10, Users: 4, Seed: 108, Skew: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	in := smd.FromMMD(min)
	for _, seed := range []int{0, 1, 2} {
		seed := seed
		b.Run("seed="+itoa(seed), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := smd.PartialEnum(in, seed)
				if err != nil {
					b.Fatal(err)
				}
				last = res.BestValue
			}
			b.ReportMetric(last, "value")
		})
	}
}

// BenchmarkE9VsThreshold times the pipeline and the threshold baseline
// on cable-TV workloads and reports the aggregate utility ratio across
// seeds (per-seed results vary; the claim is about the aggregate).
func BenchmarkE9VsThreshold(b *testing.B) {
	instances := make([]*videodist.Instance, 5)
	for seed := range instances {
		in, err := generator.CableTV{
			Channels: 50, Gateways: 12, Seed: int64(seed), EgressFraction: 0.2,
		}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		instances[seed] = in
	}
	var solverVal, thrVal float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solverVal, thrVal = 0, 0
		for _, in := range instances {
			a, _, err := core.Solve(in, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			t, err := baseline.Threshold(in, nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			solverVal += a.Utility(in)
			thrVal += t.Utility(in)
		}
	}
	if thrVal > 0 {
		b.ReportMetric(solverVal/thrVal, "solver/threshold")
	}
}

// BenchmarkA1LiftAblation compares the paper-faithful lift with the
// greedy-merging lift on a random MMD instance.
func BenchmarkA1LiftAblation(b *testing.B) {
	in, err := generator.RandomMMD{Streams: 12, Users: 5, M: 3, MC: 2, Seed: 111, Skew: 4}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var paper, merged float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ap, _, err := core.Solve(in, core.Options{PaperFaithfulLift: true})
		if err != nil {
			b.Fatal(err)
		}
		am, _, err := core.Solve(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		paper, merged = ap.Utility(in), am.Utility(in)
	}
	if paper > 0 {
		b.ReportMetric(merged/paper, "merged/paper")
	}
}

// BenchmarkA2BlockingFamily reports the raw-greedy hole at gap=1000.
func BenchmarkA2BlockingFamily(b *testing.B) {
	min, err := generator.BlockingFamily(1000)
	if err != nil {
		b.Fatal(err)
	}
	in := smd.FromMMD(min)
	var raw, fixed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := smd.FixedGreedy(in)
		if err != nil {
			b.Fatal(err)
		}
		raw, fixed = res.Greedy.SemiValue, res.BestValue
	}
	if raw > 0 {
		b.ReportMetric(fixed/raw, "fixed/raw")
	}
}

// BenchmarkA3MuSensitivity times the allocator at the paper's mu.
func BenchmarkA3MuSensitivity(b *testing.B) {
	in, err := generator.SmallStreams{
		Base: generator.RandomMMD{Streams: 30, Users: 6, M: 2, MC: 1, Seed: 113, Skew: 2},
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	norm, err := online.Normalize(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, err := online.NewAllocator(norm.Instance, norm.Mu())
		if err != nil {
			b.Fatal(err)
		}
		al.RunSequence(nil)
	}
}

// The cluster benchmark bodies live in internal/benchkit so that
// `mmdbench -json` can snapshot the identical measurements into
// BENCH_serving.json (the machine-readable serving-path baseline).
//
// BenchmarkClusterSerial processes all 8 tenants on a single shard
// worker — the serial-loop baseline. BenchmarkClusterSharded processes
// the same fleet with one shard per tenant, so admission across tenants
// runs in parallel: tenants are independent, so with GOMAXPROCS >= 4
// the sharded fleet should process the same event stream at >= 2x the
// serial-loop throughput, with bit-identical per-tenant results (the
// cluster's determinism contract, asserted by E12 and the cluster
// package tests).
func BenchmarkClusterSerial(b *testing.B)  { benchkit.ClusterWorkload(b, 1) }
func BenchmarkClusterSharded(b *testing.B) { benchkit.ClusterWorkload(b, 8) }

// BenchmarkClusterAck drives the same 8-tenant workload through the
// serving API v2 session methods — every event carries a completion
// channel and the caller blocks for its typed result — to measure the
// per-event ack overhead against the fire-and-forget replay path
// (BenchmarkClusterSerial/Sharded process the identical schedule via
// RunWorkload). Request/response arrivals flush the batch they join,
// so this is also the no-coalescing bound of the batching design.
func BenchmarkClusterAck(b *testing.B) { benchkit.ClusterAck(b) }

// BenchmarkCatalogAdmission sweeps the serving API v3 admission fast
// path — the scaled feasibility guard (FitsDeltaScaled/AddScaled) the
// fleet catalog prices discounted admissions with. isolated is scale 1
// (bit-identical decisions to the PR 3 ledger guard), shared the
// SharedOrigin replication fraction. Both sub-benchmarks must report 0
// allocs/op: the discount adds one float multiply to the delta query,
// never an allocation.
func BenchmarkCatalogAdmission(b *testing.B) {
	b.Run("isolated", func(b *testing.B) { benchkit.CatalogAdmissionLedger(b, 1) })
	b.Run("shared", func(b *testing.B) { benchkit.CatalogAdmissionLedger(b, 0.25) })
}

// BenchmarkClusterCatalog drives the 8-tenant fleet entirely through
// fleet-identified admission (OfferCatalogStream/DepartCatalogStream):
// every admission runs the catalog's acquire/admit/commit protocol
// across the registry owner and the shard worker. Compare against
// BenchmarkClusterAck for the per-event cost of fleet identity.
func BenchmarkClusterCatalog(b *testing.B) {
	b.Run("isolated", func(b *testing.B) { benchkit.ClusterCatalog(b, false) })
	b.Run("shared", func(b *testing.B) { benchkit.ClusterCatalog(b, true) })
}

// BenchmarkStreamIngest measures remote ingestion throughput through
// the real HTTP front end (serving API v4): the same ~10k-event
// workload submitted over one persistent /v1/stream NDJSON connection,
// as :batch posts of 16 events, and as one POST per event. The
// stream's pipelining amortizes the per-request round trip away, so
// events/sec for stream must be >= 2x the per-request paths — the v4
// acceptance bar recorded in BENCH_serving.json.
func BenchmarkStreamIngest(b *testing.B) {
	b.Run("stream", func(b *testing.B) { benchkit.StreamIngest(b, "stream") })
	b.Run("batch16", func(b *testing.B) { benchkit.StreamIngest(b, "batch") })
	b.Run("single", func(b *testing.B) { benchkit.StreamIngest(b, "single") })
}

// BenchmarkStreamIngestWAL reruns the persistent-stream ingestion
// workload with the durability subsystem on, one sub-benchmark per
// WAL sync policy. The gap to BenchmarkStreamIngest/stream is the
// WAL's whole price on the hot ingest path; the acceptance bar is
// sync=batch (group commit) sustaining >= 70% of the WAL-off
// events/sec, recorded in BENCH_serving.json's durability section.
func BenchmarkStreamIngestWAL(b *testing.B) {
	b.Run("none", func(b *testing.B) { benchkit.StreamIngestWAL(b, videodist.WALSyncNone) })
	b.Run("interval", func(b *testing.B) { benchkit.StreamIngestWAL(b, videodist.WALSyncInterval) })
	b.Run("batch", func(b *testing.B) { benchkit.StreamIngestWAL(b, videodist.WALSyncBatch) })
}

// BenchmarkSaturation runs one cell of the saturation harness — the
// concurrent-submitter session workload behind BENCH_serving.json's
// scaling curve — with GOMAXPROCS pinned above 1, so `go test -bench`
// (and CI's -benchtime=1x smoke) exercises concurrent submitters and
// the ack-latency histogram on every run. The full shards x GOMAXPROCS
// grid is swept by `mmdbench -json`.
func BenchmarkSaturation(b *testing.B) {
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	if procs < 2 {
		procs = 2
	}
	b.Run(fmt.Sprintf("shards_8_procs_%d", procs), func(b *testing.B) {
		benchkit.SaturationBench(b, 8, procs)
	})
}

// BenchmarkWorkloadIngest measures ingestion of the generator
// subsystem's skewed traffic — Zipf popularity with a flash crowd, and
// diurnal churn — over one persistent /v1/stream connection against a
// catalog-enabled fleet. The gap to BenchmarkStreamIngest/stream is
// what skew, catalog admission, and gateway churn together cost on the
// same wire path; recorded in BENCH_serving.json's workloads section.
func BenchmarkWorkloadIngest(b *testing.B) {
	for _, kind := range benchkit.WorkloadKinds() {
		b.Run(kind, func(b *testing.B) { benchkit.WorkloadIngest(b, kind) })
	}
}

// BenchmarkExperimentSuite runs the entire mmdbench table suite once
// per iteration — the one-stop reproduction benchmark.
func BenchmarkExperimentSuite(b *testing.B) {
	if testing.Short() {
		b.Skip("full suite")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.All(); err != nil {
			b.Fatal(err)
		}
	}
}
