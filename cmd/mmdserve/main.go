// Command mmdserve runs a sharded multi-tenant head-end cluster from
// generator configs: driving a deterministic synthetic workload and
// printing per-shard and fleet-wide tables, serving the fleet over
// HTTP, or driving the same workload against a remote fleet as a
// streaming load client.
//
// Usage:
//
//	mmdserve [-tenants 8] [-shards 0] [-channels 40] [-gateways 10]
//	         [-seed 1] [-rounds 2] [-batch 16] [-policy online]
//	         [-depart-every 3] [-churn-every 0] [-resolve-every 0]
//	         [-cost-model isolated|shared|off] [-share-fraction 0.25]
//	         [-wal-dir dir] [-wal-sync none|interval|batch] [-checkpoint-every n]
//	         [-shed-p99 dur] [-shed-retry-after dur] [-stream-write-timeout dur]
//	         [-http addr [-role catalog | -role node -catalog-url url | -role router -nodes urls]
//	          | -stream url [-via stream|batch|single]]
//
// Without -http or -stream the deterministic report (fleet summary,
// per-shard stats, per-tenant table, catalog table) goes to stdout: two
// invocations with the same flags produce byte-identical output.
// Wall-clock throughput, which is not deterministic, goes to stderr.
//
// Every channel is bound into the fleet catalog as stream "ch-NNN" at
// every tenant; -cost-model shared prices later admissions of an
// already-carried stream at -share-fraction of the origin cost.
//
// With -http the fleet serves the JSON ingestion front end
// (internal/httpserve) — a thin codec over the serving API v2/v3/v4
// request/response structs:
//
//	POST /v1/tenants/{id}/events        {"type":"offer","stream":3}
//	POST /v1/tenants/{id}/events        {"type":"catalog-offer","catalog_id":"ch-003"}
//	POST /v1/tenants/{id}/events:batch  [{"type":"offer","stream":3}, ...]
//	POST /v1/stream                     NDJSON in, NDJSON out (persistent)
//	POST /v1/admin/reshard              {"shards":4} (live handoff to new shard workers)
//	GET  /v1/fleet/snapshot
//	GET  /v1/catalog
//
// With -wal-dir the fleet is durable: every acked event is appended to
// a per-shard write-ahead log before its ack (under the default
// -wal-sync batch, fsynced too — group commit), so a SIGKILL loses
// nothing acknowledged. Restarting with the same flags and the same
// -wal-dir recovers: the log replays through the normal ingest path,
// the result is verified against the last checkpoint manifest, and the
// recovered fleet is bit-identical to one that never crashed. The
// shard count on restart is free — recovery replays into whatever
// -shards says, and /v1/admin/reshard changes it live.
//
// Serving is resilient by default (see internal/httpserve): /v1/stream
// connections may claim a resumable session (X-Stream-Session) whose
// applied set — owned by the cluster, and rebuilt from the WAL by the
// recovery itself — keeps client replays exactly-once;
// -stream-write-timeout disconnects consumers that stop reading instead
// of pinning handler goroutines; and -shed-p99 turns saturation into
// fast 503 + Retry-After responses instead of unbounded queueing.
//
// With -role the same binary becomes one process of a distributed
// fleet (serving API v7, see internal/fleet): "catalog" serves the
// fleet catalog registry on its NDJSON wire protocol, "node" serves a
// cluster whose registry is a wire client against -catalog-url, and
// "router" fans /v1/stream sessions out across -nodes (comma-separated
// node URLs, routing tenant → shard → node), merging per-node
// snapshots into one fleet view. The router reads the catalog through
// its nodes, so it refuses -catalog-url. No process of such a fleet
// writes a log, so every -role refuses -wal-dir. All processes must
// share the tenant flags; a 4-process quickstart:
//
//	mmdserve -http :9101 -role catalog
//	mmdserve -http :9102 -role node -catalog-url http://127.0.0.1:9101
//	mmdserve -http :9103 -role node -catalog-url http://127.0.0.1:9101
//	mmdserve -http :9100 -role router -nodes http://127.0.0.1:9102,http://127.0.0.1:9103
//	mmdserve -stream http://127.0.0.1:9100
//
// The driven fleet's per-tenant table is byte-identical to a
// 1-process run's — node-count invariance, the fleet tier's pinned
// property.
//
// With -stream it is the load client instead: the synthetic workload
// schedule the local mode's RunWorkload phase would submit (arrivals,
// departures, churn; the local report's closing catalog retune phase is
// not replayed) is derived from the flags and piped to a remote
// mmdserve -http fleet — over one persistent /v1/stream connection
// (-via stream, the default), as :batch posts of -batch events (-via
// batch), or as one POST per event (-via single). The remote per-tenant
// table goes to stdout; because all three submission paths preserve
// per-tenant order, it is byte-identical across -via modes — the parity
// check CI runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/catalog/remote"
	"repro/internal/fleet"
	"repro/internal/generator"
	"repro/internal/httpserve"
	"repro/internal/loaddrive"
	"repro/streamclient"
)

func main() {
	var cfg config
	var httpAddr, streamURL, via string
	var role, nodesCSV, catalogURL string
	flag.IntVar(&cfg.tenants, "tenants", 8, "number of tenant head-ends")
	flag.IntVar(&cfg.shards, "shards", 0, "shard workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.channels, "channels", 40, "channels per tenant")
	flag.IntVar(&cfg.gateways, "gateways", 10, "gateways per tenant")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.rounds, "rounds", 2, "catalog replays per tenant")
	flag.IntVar(&cfg.batch, "batch", 16, "fire-and-forget arrivals per admission window in the shard table (and events per -via batch post)")
	flag.StringVar(&cfg.policy, "policy", "online", "admission policy: online, online-unguarded, threshold, oracle, static")
	flag.IntVar(&cfg.departEvery, "depart-every", 3, "inject a stream departure every k arrivals (0 = off)")
	flag.IntVar(&cfg.churnEvery, "churn-every", 0, "inject a gateway leave/join every k arrivals (0 = off)")
	flag.IntVar(&cfg.resolveEvery, "resolve-every", 0, "offline re-solve after every n churn events (0 = off)")
	flag.StringVar(&cfg.costModel, "cost-model", "isolated", "fleet catalog cost model: isolated, shared, or off (no catalog)")
	flag.Float64Var(&cfg.shareFraction, "share-fraction", 0.25, "replication fraction later tenants pay under -cost-model shared")
	flag.StringVar(&cfg.walDir, "wal-dir", "", "write-ahead log directory; reopening a directory that already holds a log recovers the fleet from it (empty = no durability; every -role refuses it)")
	flag.StringVar(&cfg.walSync, "wal-sync", "batch", "WAL sync policy: none, interval, or batch (group commit; every acked event durable)")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 0, "log records between automatic checkpoints (0 = checkpoint only on clean close)")
	flag.DurationVar(&cfg.shedP99, "shed-p99", 0, "overload threshold: shed load (fast 503 + Retry-After) while the rolling ack p99 is above this (0 = never shed)")
	flag.DurationVar(&cfg.shedRetryAfter, "shed-retry-after", time.Second, "Retry-After hint sent while shedding, and the cool-off before probing again")
	flag.DurationVar(&cfg.streamWriteTimeout, "stream-write-timeout", time.Minute, "per-write deadline on /v1/stream responses; a consumer stalled past it is disconnected (0 = wait forever)")
	flag.StringVar(&httpAddr, "http", "", "serve the fleet over HTTP on this address instead of running the synthetic workload")
	flag.StringVar(&streamURL, "stream", "", "drive the synthetic workload against a remote mmdserve -http fleet at this base URL")
	flag.StringVar(&via, "via", "stream", "remote submission path for -stream: stream, batch, or single")
	flag.StringVar(&role, "role", "", "fleet role for -http (serving API v7): node (cluster against a remote catalog service), catalog (the registry service), router (stream fan-out tier); empty serves the whole fleet in one process")
	flag.StringVar(&nodesCSV, "nodes", "", "comma-separated node base URLs in node-index order (-role router)")
	flag.StringVar(&catalogURL, "catalog-url", "", "catalog service base URL (-role node)")
	flag.Parse()
	switch {
	case httpAddr != "":
		if err := serveHTTP(cfg, role, httpAddr, nodesCSV, catalogURL, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "mmdserve:", err)
			os.Exit(1)
		}
	case streamURL != "":
		if err := drive(cfg, streamURL, via, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "mmdserve:", err)
			os.Exit(1)
		}
	default:
		if err := run(cfg, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "mmdserve:", err)
			os.Exit(1)
		}
	}
}

type config struct {
	tenants, shards, channels, gateways   int
	rounds, batch                         int
	departEvery, churnEvery, resolveEvery int
	seed                                  int64
	policy                                string
	costModel                             string
	shareFraction                         float64
	walDir, walSync                       string
	checkpointEvery                       int
	shedP99, shedRetryAfter               time.Duration
	streamWriteTimeout                    time.Duration
	// catalogRemote, when set (-role node), replaces the in-process
	// registry with a wire client against the catalog service.
	catalogRemote catalog.Service
}

// catalogOptions builds the fleet catalog config: every channel index s
// is the same fleet stream "ch-NNN" at every tenant (the tenants are
// same-shaped CableTV head-ends, so local and fleet indexes coincide —
// the fully-overlapping regional-CDN workload).
func catalogOptions(cfg config) (*videodist.CatalogOptions, error) {
	var model videodist.CatalogCostModel
	switch cfg.costModel {
	case "", "isolated":
		model = videodist.CatalogIsolated{}
	case "shared":
		model = videodist.CatalogSharedOrigin{ReplicationFraction: cfg.shareFraction}
	case "off":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown cost model %q (want isolated, shared, or off)", cfg.costModel)
	}
	return &videodist.CatalogOptions{
		Streams:   videodist.IdentityCatalogBindings(cfg.tenants, cfg.channels, channelID),
		CostModel: model,
	}, nil
}

// channelID is the single binding between a channel index and its
// fleet catalog identity (used both when binding the catalog and when
// offering through it).
func channelID(s int) videodist.CatalogID {
	return videodist.CatalogID(fmt.Sprintf("ch-%03d", s))
}

// instances generates the fleet's tenant instances from cfg — shared by
// the local serving modes and the remote load client, which must derive
// the identical workload schedule.
func instances(cfg config) ([]*videodist.Instance, error) {
	if cfg.tenants < 1 {
		return nil, fmt.Errorf("need at least one tenant")
	}
	out := make([]*videodist.Instance, cfg.tenants)
	for i := range out {
		in, err := generator.CableTV{
			Channels: cfg.channels, Gateways: cfg.gateways,
			Seed: cfg.seed + int64(i), EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// buildCluster builds the fleet described by cfg: cfg.tenants cable-TV
// head-ends with the chosen admission policy. With -wal-dir it is also
// the recovery switch: a directory already holding a log reopens it
// with RecoverCluster (replay, verify, repair, go live — the non-nil
// report says what happened); a fresh directory starts logging from
// genesis.
func buildCluster(cfg config) (*videodist.Cluster, *videodist.RecoveryReport, error) {
	ins, err := instances(cfg)
	if err != nil {
		return nil, nil, err
	}
	tenants := make([]videodist.ClusterTenant, len(ins))
	for i, in := range ins {
		pol, err := videodist.NewAdmissionPolicy(in, cfg.policy)
		if err != nil {
			return nil, nil, err
		}
		tenants[i] = videodist.ClusterTenant{Instance: in, Policy: pol}
	}
	cat, err := catalogOptions(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.catalogRemote != nil {
		if cat == nil {
			return nil, nil, fmt.Errorf("-role node needs a catalog (-cost-model %q disables it)", cfg.costModel)
		}
		cat.Remote = cfg.catalogRemote
	}
	opts := videodist.ClusterOptions{
		Shards:       cfg.shards,
		BatchSize:    cfg.batch,
		ResolveEvery: cfg.resolveEvery,
		Catalog:      cat,
	}
	if cfg.walDir != "" {
		sync, err := videodist.ParseWALSyncPolicy(cfg.walSync)
		if err != nil {
			return nil, nil, err
		}
		opts.WAL = &videodist.WALOptions{
			Dir:             cfg.walDir,
			Sync:            sync,
			CheckpointEvery: cfg.checkpointEvery,
		}
		if walDirHasLog(cfg.walDir) {
			return videodist.RecoverCluster(tenants, opts)
		}
	}
	c, err := videodist.NewCluster(tenants, opts)
	return c, nil, err
}

// walDirHasLog reports whether dir already holds log segments — the
// new-fleet vs recover-fleet switch.
func walDirHasLog(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			return true
		}
	}
	return false
}

// idleTimeout closes a keep-alive connection that has sat idle this
// long between requests.
const idleTimeout = 2 * time.Minute

// headerTimeout bounds how long a client may take to send a request's
// headers, so one that never finishes them cannot hold a connection
// and a goroutine forever. A variable only so tests can shorten it.
var headerTimeout = 10 * time.Second

// newServer returns the HTTP server every role listens with. It sets
// no ReadTimeout or WriteTimeout: /v1/stream and the catalog wire are
// long-lived requests, and -stream-write-timeout already bounds
// stream writes.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve builds the fleet and serves the HTTP front end until the
// listener fails (or forever).
func serve(cfg config, addr string, log io.Writer) error {
	c, rep, err := buildCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	reportRecovery(log, rep)
	opts := httpserve.Options{
		ShedP99:            cfg.shedP99,
		RetryAfter:         cfg.shedRetryAfter,
		StreamWriteTimeout: cfg.streamWriteTimeout,
	}
	fmt.Fprintf(log, "mmdserve: %d tenants on %d shards, policy=%s, listening on %s\n",
		c.NumTenants(), c.NumShards(), cfg.policy, addr)
	return newServer(addr, httpserve.NewHandlerOpts(c, opts)).ListenAndServe()
}

// serveHTTP serves the whole fleet, or with a role one process of a
// multi-process fleet. No such process writes a log: a node's registry
// is remote, and the WAL logs the registry's operations in process. So
// every role refuses -wal-dir, before it listens. The router refuses
// -catalog-url too: it reads the catalog through its nodes.
func serveHTTP(cfg config, role, addr, nodesCSV, catalogURL string, log io.Writer) error {
	if role != "" && cfg.walDir != "" {
		return fmt.Errorf("-role %s cannot take -wal-dir: no process of a multi-process fleet writes a log", role)
	}
	switch role {
	case "":
		return serve(cfg, addr, log)
	case "node":
		return serveNode(cfg, addr, catalogURL, log)
	case "catalog":
		return serveCatalog(cfg, addr, log)
	case "router":
		if catalogURL != "" {
			return fmt.Errorf("-role router cannot take -catalog-url: the router reads the catalog through its nodes")
		}
		return serveRouter(cfg, addr, nodesCSV, log)
	}
	return fmt.Errorf("unknown -role %q (want node, catalog, or router)", role)
}

// serveNode is -role node: the same cluster as serve, but its catalog
// registry is a wire client against the catalog service — this process
// owns its tenants' assignment state while cross-node refcounts settle
// with the remote owner. The router in front sends it only the events
// of the tenants it owns.
func serveNode(cfg config, addr, catalogURL string, log io.Writer) error {
	if catalogURL == "" {
		return fmt.Errorf("-role node needs -catalog-url")
	}
	rc, err := remote.Dial(catalogURL, remote.Options{})
	if err != nil {
		return err
	}
	cfg.catalogRemote = rc
	fmt.Fprintf(log, "mmdserve: node against catalog %s\n", catalogURL)
	return serve(cfg, addr, log)
}

// serveCatalog is -role catalog: the fleet catalog registry in its own
// process, serving the NDJSON wire protocol nodes settle against (see
// internal/catalog/remote) plus GET /v1/catalog.
func serveCatalog(cfg config, addr string, log io.Writer) error {
	cat, err := catalogOptions(cfg)
	if err != nil {
		return err
	}
	if cat == nil {
		return fmt.Errorf("-role catalog needs a catalog (-cost-model %q disables it)", cfg.costModel)
	}
	reg, err := catalog.NewRegistry(cat.Streams, cat.CostModel)
	if err != nil {
		return err
	}
	defer reg.Close()
	fmt.Fprintf(log, "mmdserve: catalog service (%s, %d streams), listening on %s\n",
		cat.CostModel.Name(), cfg.channels, addr)
	return newServer(addr, remote.NewHandler(reg)).ListenAndServe()
}

// serveRouter is -role router: the stream fan-out tier. -shards is the
// plan's routing modulus (0 uses -tenants, one logical shard per
// tenant); it is pinned for the router's lifetime and independent of
// the nodes' internal shard counts.
func serveRouter(cfg config, addr, nodesCSV string, log io.Writer) error {
	if nodesCSV == "" {
		return fmt.Errorf("-role router needs -nodes")
	}
	var urls []string
	for _, u := range strings.Split(nodesCSV, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	shards := cfg.shards
	if shards <= 0 {
		shards = cfg.tenants
	}
	rt, err := fleet.NewRouter(fleet.Options{
		Plan:  fleet.Plan{Nodes: len(urls), Shards: shards},
		Nodes: urls,
		ID:    fmt.Sprintf("router-%d-%d", os.Getpid(), time.Now().UnixNano()),
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Fprintf(log, "mmdserve: router over %d nodes (%d logical shards), listening on %s\n",
		len(urls), shards, addr)
	return newServer(addr, rt.Handler()).ListenAndServe()
}

// reportRecovery summarizes a WAL recovery on the timing stream (rep
// nil — a fresh fleet — prints nothing).
func reportRecovery(log io.Writer, rep *videodist.RecoveryReport) {
	if rep == nil {
		return
	}
	fmt.Fprintf(log, "mmdserve: recovered WAL gen %d: %d events + %d catalog ops replayed (max seq %d), %d fences verified (newest gen %d, verified=%v), %d torn segments truncated, %d dangling refs released, %d reconciled\n",
		rep.Gen, rep.Events, rep.CatalogOps, rep.MaxSeq,
		rep.FencesVerified, rep.CheckpointGen, rep.CheckpointVerified,
		len(rep.TruncatedSegments), rep.DanglingReleased, rep.Reconciled)
}

// run builds the fleet, drives the workload, and writes the
// deterministic report to out and timing to timing. With a catalog
// configured, a retune phase follows the synthetic workload: every
// tenant departs its lineup and re-admits the fleet catalog by
// CatalogID in index order — so the report's catalog table shows live
// cross-shard reference counts and, under -cost-model shared, the
// origin-cost savings of transcoding each popular stream once.
func run(cfg config, out, timing io.Writer) error {
	c, rep, err := buildCluster(cfg)
	if err != nil {
		return err
	}
	reportRecovery(timing, rep)
	start := time.Now()
	fs, total, err := c.RunWorkload(videodist.ClusterWorkload{
		Seed:        cfg.seed,
		Rounds:      cfg.rounds,
		DepartEvery: cfg.departEvery,
		ChurnEvery:  cfg.churnEvery,
	})
	if err == nil && cfg.costModel != "off" {
		ctx := context.Background()
		for ti := 0; ti < cfg.tenants && err == nil; ti++ {
			for s := 0; s < cfg.channels; s++ {
				if _, err = c.DepartStream(ctx, ti, s); err != nil {
					break
				}
				total++
			}
		}
		for s := 0; s < cfg.channels && err == nil; s++ {
			for ti := 0; ti < cfg.tenants; ti++ {
				if _, err = c.OfferCatalogStream(ctx, ti, channelID(s)); err != nil {
					break
				}
				total++
			}
		}
		if err == nil {
			fs, err = c.Snapshot()
		}
	}
	elapsed := time.Since(start)
	if err != nil {
		_ = c.Close()
		return err
	}
	if err := c.Close(); err != nil {
		return err
	}

	fmt.Fprintf(out, "mmdserve: policy=%s seed=%d rounds=%d batch=%d\n\n",
		cfg.policy, cfg.seed, cfg.rounds, cfg.batch)
	fmt.Fprint(out, fs.Render())
	fmt.Fprintf(timing, "processed %d events in %v (%.0f events/s)\n",
		total, elapsed.Round(time.Microsecond), float64(total)/elapsed.Seconds())
	return nil
}

// schedules derives every tenant's synthetic event schedule from cfg —
// the exact sequence a local RunWorkload would submit — already mapped
// onto the wire form.
func schedules(cfg config) ([][]streamclient.Event, error) {
	ins, err := instances(cfg)
	if err != nil {
		return nil, err
	}
	w := videodist.ClusterWorkload{
		Seed:        cfg.seed,
		Rounds:      cfg.rounds,
		DepartEvery: cfg.departEvery,
		ChurnEvery:  cfg.churnEvery,
	}
	out := make([][]streamclient.Event, len(ins))
	for ti, in := range ins {
		for _, ev := range w.EventsForInstance(in, ti) {
			out[ti] = append(out[ti], streamclient.Event{
				Tenant: ti, Type: streamclient.TypeName(ev.Type, ev.CatalogID != ""),
				Stream: ev.Stream, User: ev.User, Install: ev.Install,
			})
		}
	}
	return out, nil
}

// drive is the remote load client: it submits the synthetic workload's
// arrival/departure/churn schedule (the RunWorkload half of the local
// mode; the local report's catalog retune phase is not replayed — under
// a shared cost model its pipelined pricing would depend on settlement
// timing) to a remote fleet over the chosen path, fetches the final
// snapshot, and prints the per-tenant table — which is byte-identical
// across -via modes (all three preserve per-tenant submission order).
func drive(cfg config, target, via string, out, timing io.Writer) error {
	start := time.Now()
	var total int
	if cfg.rounds > 0 {
		seqs, err := schedules(cfg)
		if err != nil {
			return err
		}
		switch via {
		case "", "stream":
			total, err = loaddrive.Stream(target, loaddrive.Interleave(seqs))
		case "batch":
			total, err = loaddrive.Batch(target, seqs, cfg.batch)
		case "single":
			total, err = loaddrive.Single(target, loaddrive.Interleave(seqs))
		default:
			return fmt.Errorf("unknown -via %q (want stream, batch, or single)", via)
		}
		if err != nil {
			return err
		}
	}
	// -rounds 0 submits nothing: the client only fetches and prints the
	// remote per-tenant table (the crash-recovery smoke reads a
	// recovered fleet's state this way without perturbing it).
	elapsed := time.Since(start)

	resp, err := http.Get(target + "/v1/fleet/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: server status %s", resp.Status)
	}
	var fs videodist.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return err
	}
	fmt.Fprint(out, fs.RenderTenants())
	fmt.Fprintf(timing, "submitted %d events via %s in %v (%.0f events/s)\n",
		total, via, elapsed.Round(time.Microsecond), float64(total)/elapsed.Seconds())
	return nil
}
