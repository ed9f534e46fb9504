// Benchmarks: one per solver experiment of the internal/experiments
// index (E1-E9) plus the ablations (A1-A3). Each benchmark both times
// the relevant operation and reports the experiment's headline
// quantity via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the shape of every claim; BenchmarkExperimentSuite runs
// every table, E10-E17 included. cmd/mmdbench prints the full tables.
// The serving-stack benchmarks (cluster replay, session acks, catalog
// sessions, HTTP ingestion with and without the WAL) follow them.
package videodist_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	videodist "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/httpserve"
	"repro/internal/loaddrive"
	"repro/internal/online"
	"repro/internal/reduction"
	"repro/internal/skew"
	"repro/internal/smd"
	"repro/streamclient"
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

// clusterTenants builds the 8-tenant fleet the cluster and ingestion
// benchmarks serve: CableTV instances of 40 channels × 10 gateways.
func clusterTenants(b *testing.B) []*videodist.Instance {
	b.Helper()
	instances := make([]*videodist.Instance, 8)
	for i := range instances {
		in, err := generator.CableTV{
			Channels: 40, Gateways: 10, Seed: 200 + int64(i), EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		instances[i] = in
	}
	return instances
}

// newBenchCluster builds a fresh fleet over instances with the given
// options.
func newBenchCluster(b *testing.B, instances []*videodist.Instance, opts videodist.ClusterOptions) *videodist.Cluster {
	b.Helper()
	tenants := make([]videodist.ClusterTenant, len(instances))
	for j, in := range instances {
		tenants[j] = videodist.ClusterTenant{Instance: in}
	}
	c, err := videodist.NewCluster(tenants, opts)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// closeFeasible closes c and fails unless its final snapshot was
// feasible.
func closeFeasible(b *testing.B, c *videodist.Cluster, fs *videodist.FleetSnapshot) {
	b.Helper()
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	if !fs.AllFeasible {
		b.Fatal("fleet infeasible")
	}
}

// BenchmarkClusterSerial processes all 8 tenants on a single shard
// worker — the serial-loop baseline. BenchmarkClusterSharded processes
// the same fleet with one shard per tenant, so admission across tenants
// runs in parallel, with bit-identical per-tenant results (the
// cluster's determinism contract, asserted by E12 and the cluster
// package tests). Each op builds the fleet and replays one full
// workload (arrivals, departures, gateway churn) and reports events/op.
func BenchmarkClusterSerial(b *testing.B)  { clusterWorkload(b, 1) }
func BenchmarkClusterSharded(b *testing.B) { clusterWorkload(b, 8) }

func clusterWorkload(b *testing.B, shards int) {
	instances := clusterTenants(b)
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newBenchCluster(b, instances, videodist.ClusterOptions{Shards: shards, BatchSize: 16})
		fs, total, err := c.RunWorkload(videodist.ClusterWorkload{
			Seed: 200, Rounds: 2, DepartEvery: 3, ChurnEvery: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		closeFeasible(b, c, fs)
		events = total
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkClusterAck drives the same 8-tenant workload through the
// session methods — every event carries a completion channel and the
// caller blocks for its typed result — to measure the per-event ack
// overhead against the fire-and-forget replay path
// (BenchmarkClusterSerial/Sharded process the identical schedule via
// RunWorkload). Request/response arrivals flush the batch they join,
// so this is also the no-coalescing bound of the batching design. The
// fleet is built (and torn down) outside the timer: a production
// cluster is constructed once and serves events for its lifetime, so
// ns/op and allocs/op measure the serving hot path alone — the path
// the AllocsPerRun tests pin.
func BenchmarkClusterAck(b *testing.B) {
	instances := clusterTenants(b)
	ctx := context.Background()
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newBenchCluster(b, instances, videodist.ClusterOptions{Shards: 8, BatchSize: 16})
		w := videodist.ClusterWorkload{Seed: 200, Rounds: 2, DepartEvery: 3, ChurnEvery: 8}
		schedules := make([][]videodist.ClusterEvent, c.NumTenants())
		for ti := range schedules {
			schedules[ti] = w.Events(c, ti)
		}
		// Collect the construction garbage now so marking debt from the
		// (untimed) fleet build does not spill into the timed section.
		runtime.GC()
		b.StartTimer()

		total := 0
		var err error
		for ti := 0; ti < c.NumTenants(); ti++ {
			for _, ev := range schedules[ti] {
				switch ev.Type {
				case videodist.ClusterStreamArrival:
					_, err = c.OfferStream(ctx, ev.Tenant, ev.Stream)
				case videodist.ClusterStreamDeparture:
					_, err = c.DepartStream(ctx, ev.Tenant, ev.Stream)
				case videodist.ClusterUserLeave:
					_, err = c.UserLeave(ctx, ev.Tenant, ev.User)
				case videodist.ClusterUserJoin:
					_, err = c.UserJoin(ctx, ev.Tenant, ev.User)
				case videodist.ClusterResolve:
					_, err = c.Resolve(ctx, ev.Tenant, videodist.ResolveOptions{})
				}
				if err != nil {
					b.Fatal(err)
				}
				total++
			}
		}

		b.StopTimer()
		fs, err := c.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		closeFeasible(b, c, fs)
		events = total
		b.StartTimer()
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkClusterCatalog drives the 8-tenant fleet entirely through
// fleet-identified admission: every stream is fleet-bound at every
// tenant, and each event is an OfferCatalogStream/DepartCatalogStream
// session call, so every admission runs the catalog's
// acquire/admit/commit protocol across the registry and the shard
// worker. isolated prices with CatalogIsolated, shared with
// SharedOrigin. events/op counts session calls; compare against
// BenchmarkClusterAck for the per-event cost of fleet identity.
func BenchmarkClusterCatalog(b *testing.B) {
	b.Run("isolated", func(b *testing.B) { clusterCatalog(b, videodist.CatalogIsolated{}) })
	b.Run("shared", func(b *testing.B) {
		clusterCatalog(b, videodist.CatalogSharedOrigin{ReplicationFraction: 0.25})
	})
}

func clusterCatalog(b *testing.B, model videodist.CatalogCostModel) {
	instances := clusterTenants(b)
	channels := instances[0].NumStreams()
	bindings := videodist.IdentityCatalogBindings(len(instances), channels, func(s int) videodist.CatalogID {
		return videodist.CatalogID(fmt.Sprintf("s-%03d", s))
	})
	// Real callers hold stable CatalogIDs; formatting them inside the
	// timed loop would charge ID construction to the catalog path.
	ids := make([]videodist.CatalogID, channels)
	for s := range ids {
		ids[s] = bindings[s].ID
	}
	ctx := context.Background()
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newBenchCluster(b, instances, videodist.ClusterOptions{
			Shards: 8, BatchSize: 16,
			Catalog: &videodist.CatalogOptions{Streams: bindings, CostModel: model},
		})
		total := 0
		for ti := 0; ti < c.NumTenants(); ti++ {
			for s := 0; s < channels; s++ {
				if _, err := c.OfferCatalogStream(ctx, ti, ids[s]); err != nil {
					b.Fatal(err)
				}
				total++
				if s%3 == 2 {
					if _, err := c.DepartCatalogStream(ctx, ti, ids[s]); err != nil {
						b.Fatal(err)
					}
					total++
				}
			}
		}
		fs, err := c.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		closeFeasible(b, c, fs)
		events = total
	}
	b.ReportMetric(float64(events), "events/op")
}

// streamIngestEvents derives the ~10k-event ingestion workload (8
// tenants x 40 channels x 24 rounds of arrivals with departures every
// third) as per-tenant wire-form schedules.
func streamIngestEvents(instances []*videodist.Instance) [][]streamclient.Event {
	w := videodist.ClusterWorkload{Seed: 200, Rounds: 24, DepartEvery: 3}
	out := make([][]streamclient.Event, len(instances))
	for ti, in := range instances {
		for _, ev := range w.EventsForInstance(in, ti) {
			typ := "offer"
			if ev.Type == videodist.ClusterStreamDeparture {
				typ = "depart"
			}
			out[ti] = append(out[ti], streamclient.Event{Tenant: ti, Type: typ, Stream: ev.Stream})
		}
	}
	return out
}

// BenchmarkStreamIngest measures remote ingestion throughput through
// the real HTTP front end (internal/httpserve behind an httptest
// listener): the same ~10k-event workload submitted over one
// persistent /v1/stream NDJSON connection ("stream"), as :batch posts
// of 16 events round-robin across tenants ("batch16"), and as one POST
// per event ("single") — all through internal/loaddrive, the driver
// code mmdserve -stream runs, so the benchmark measures exactly the
// CLI's protocol. The fleet and listener are built outside the timer,
// so ns/op — and the derived events/sec — is pure ingestion cost; all
// three paths preserve per-tenant order and land the fleet in the
// identical final state (pinned by TestDriveParityAcrossVias and the
// CI smoke).
func BenchmarkStreamIngest(b *testing.B) {
	b.Run("stream", func(b *testing.B) { streamIngest(b, "stream") })
	b.Run("batch16", func(b *testing.B) { streamIngest(b, "batch") })
	b.Run("single", func(b *testing.B) { streamIngest(b, "single") })
}

func streamIngest(b *testing.B, via string) {
	instances := clusterTenants(b)
	seqs := streamIngestEvents(instances)
	events := loaddrive.Interleave(seqs)
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newBenchCluster(b, instances, videodist.ClusterOptions{Shards: 8, BatchSize: 16})
		ts := httptest.NewServer(httpserve.NewHandler(c))
		// Collect the construction garbage now: without this, marking
		// debt from the (untimed) fleet build spills into whichever
		// timed ingestion section the GC happens to interrupt.
		runtime.GC()
		b.StartTimer()

		var n int
		var err error
		switch via {
		case "stream":
			n, err = loaddrive.Stream(ts.URL, events)
		case "batch":
			n, err = loaddrive.Batch(ts.URL, seqs, 16)
		case "single":
			n, err = loaddrive.Single(ts.URL, events)
		}
		if err != nil {
			b.Fatal(err)
		}
		if n != len(events) {
			b.Fatalf("submitted %d of %d events", n, len(events))
		}
		total = n

		b.StopTimer()
		ts.Close()
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	reportIngest(b, total)
}

// BenchmarkStreamIngestWAL reruns BenchmarkStreamIngest/stream with
// the durability subsystem on, one sub-benchmark per WAL sync policy:
// every shard journals each event to its per-shard WAL segment before
// acking, so the gap to BenchmarkStreamIngest/stream is the WAL's
// whole price on the hot ingest path. Each iteration logs into a fresh
// directory, created and deleted outside the timer, so segment growth
// from prior iterations never pollutes the measurement. How many
// events share one fsync under sync=batch is pinned by
// internal/cluster's TestGroupCommitAmortizesDatasync.
func BenchmarkStreamIngestWAL(b *testing.B) {
	b.Run("none", func(b *testing.B) { streamIngestWAL(b, videodist.WALSyncNone) })
	b.Run("interval", func(b *testing.B) { streamIngestWAL(b, videodist.WALSyncInterval) })
	b.Run("batch", func(b *testing.B) { streamIngestWAL(b, videodist.WALSyncBatch) })
}

func streamIngestWAL(b *testing.B, sync videodist.WALSyncPolicy) {
	instances := clusterTenants(b)
	events := loaddrive.Interleave(streamIngestEvents(instances))
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "benchwal-*")
		if err != nil {
			b.Fatal(err)
		}
		c := newBenchCluster(b, instances, videodist.ClusterOptions{
			Shards: 8, BatchSize: 16,
			WAL: &videodist.WALOptions{Dir: dir, Sync: sync},
		})
		ts := httptest.NewServer(httpserve.NewHandler(c))
		// Collect construction garbage and drain the filesystem's
		// pending journal work (segment creates, the previous
		// iteration's unlinks) before the timer starts — otherwise
		// that debt is paid inside whichever timed fsync the kernel
		// happens to fold it into, and run-to-run variance swamps the
		// steady-state ingest cost this benchmark exists to measure.
		runtime.GC()
		drainDisk()
		b.StartTimer()

		n, err := loaddrive.Stream(ts.URL, events)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(events) {
			b.Fatalf("submitted %d of %d events", n, len(events))
		}
		total = n

		b.StopTimer()
		ts.Close()
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	reportIngest(b, total)
}

// reportIngest reports an ingestion benchmark's events/op and
// events/sec.
func reportIngest(b *testing.B, events int) {
	b.ReportMetric(float64(events), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events*b.N)/secs, "events/sec")
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
