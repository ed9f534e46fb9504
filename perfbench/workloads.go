package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/catalog/remote"
	"repro/internal/fleet"
	"repro/internal/generator"
	"repro/internal/httpserve"
	"repro/internal/mmd"
	"repro/streamclient"
)

// workload is one seeded traffic mix against one stack shape. The seed
// drives the traffic only; the tenants' instances are fixed per
// workload, like a deployment that serves different days of traffic.
type workload struct {
	name string
	// pacedRate is the paced phase's offered load in events/s, and
	// snapshotRate its snapshot polls/s. Both are fixed here, never
	// derived at run time, so two commits are offered the same load.
	// pacedRate is a quarter of the workload's median unpaced
	// events_per_s on the calibration host, rounded (NOTES.md): served
	// traffic, with headroom for the host's slow episodes. flash-durable
	// is the exception; its recovery check bounds it.
	pacedRate, snapshotRate float64
	// Fleet dimensions and the base seed of the tenants' instances.
	tenants, channels, gateways int
	instanceSeed                int64
	// catalog puts every channel under a fleet-wide CatalogID with
	// SharedOrigin pricing; durable adds a group-commit WAL; fleet
	// splits the tenants over two nodes behind a router, with the
	// catalog registry in its own service.
	catalog, durable, fleet bool
	// schedule builds one cycle of the traffic from the run's seed; a
	// run sends the cycle over and over.
	schedule func(w *workload, instances []*mmd.Instance, seed int64) ([]streamclient.Event, error)
	// resolveEvery inserts an installing re-solve after every N churn
	// events of a tenant (churn-resolve only).
	resolveEvery int
	// unpacedCap, when set, bounds the events of a run's unpaced
	// segments together, even if time remains: the durable workload
	// bounds the log it writes to disk (about 330 bytes per event).
	unpacedCap int
}

// Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
var workloads = []*workload{
	{
		name: "ingest-uniform", pacedRate: 150_000, snapshotRate: 20,
		tenants: 8, channels: 40, gateways: 10, instanceSeed: 200,
		schedule: uniformSchedule,
	},
	{
		// Recovery holds the paced fleet's whole log in memory, about
		// 1.6 KB per event: 2000/s keeps it near 40 MB at 25 s, and
		// leaves group commit the small groups this phase exists for.
		name: "flash-durable", pacedRate: 2000, snapshotRate: 20,
		tenants: 8, channels: 40, gateways: 10, instanceSeed: 200,
		catalog: true, durable: true, unpacedCap: 600_000,
		schedule: flashSchedule,
	},
	{
		name: "churn-resolve", pacedRate: 30_000, snapshotRate: 20,
		tenants: 8, channels: 120, gateways: 40, instanceSeed: 300,
		schedule: churnSchedule, resolveEvery: 40,
	},
	{
		name: "fleet-router", pacedRate: 3800, snapshotRate: 20,
		tenants: 8, channels: 40, gateways: 10, instanceSeed: 200,
		catalog: true, fleet: true,
		schedule: crowdSchedule,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// instances generates the tenants' CableTV head-ends.
func (w *workload) instances() ([]*mmd.Instance, error) {
	out := make([]*mmd.Instance, w.tenants)
	for i := range out {
		in, err := generator.CableTV{
			Channels: w.channels, Gateways: w.gateways,
			Seed: w.instanceSeed + int64(i), EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// channelID is the generator's CatalogID convention.
func channelID(s int) catalog.ID { return catalog.ID(fmt.Sprintf("ch-%03d", s)) }

func (w *workload) bindings() []catalog.Binding {
	return catalog.IdentityBindings(w.tenants, w.channels, channelID)
}

func (w *workload) costModel() catalog.CostModel {
	return catalog.SharedOrigin{ReplicationFraction: 0.25}
}

// interleave merges per-tenant sequences round-robin, the order the
// cluster's own workload replay submits in.
func interleave(seqs [][]streamclient.Event) []streamclient.Event {
	var out []streamclient.Event
	for i := 0; ; i++ {
		more := false
		for _, seq := range seqs {
			if i < len(seq) {
				out = append(out, seq[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// clusterEventWire is a cluster workload event in wire form.
func clusterEventWire(ev videodist.ClusterEvent) streamclient.Event {
	out := streamclient.Event{Tenant: ev.Tenant, Stream: ev.Stream, User: ev.User, Install: ev.Install}
	switch ev.Type {
	case videodist.ClusterStreamArrival:
		out.Type = "offer"
	case videodist.ClusterStreamDeparture:
		out.Type = "depart"
	case videodist.ClusterUserLeave:
		out.Type = "leave"
	case videodist.ClusterUserJoin:
		out.Type = "join"
	case videodist.ClusterResolve:
		out.Type = "resolve"
	}
	return out
}

// uniformSchedule is the StreamIngest kind: every tenant replays its
// channel list in seeded order 24 times, departing the oldest carried
// stream after every third offer.
func uniformSchedule(w *workload, instances []*mmd.Instance, seed int64) ([]streamclient.Event, error) {
	cw := videodist.ClusterWorkload{Seed: seed, Rounds: 24, DepartEvery: 3}
	seqs := make([][]streamclient.Event, len(instances))
	for ti, in := range instances {
		for _, ev := range cw.EventsForInstance(in, ti) {
			seqs[ti] = append(seqs[ti], clusterEventWire(ev))
		}
	}
	return interleave(seqs), nil
}

// churnSchedule mixes offers, departures and gateway leave/join, and
// after every resolveEvery-th churn event of a tenant asks it for an
// installing re-solve.
func churnSchedule(w *workload, instances []*mmd.Instance, seed int64) ([]streamclient.Event, error) {
	cw := videodist.ClusterWorkload{Seed: seed, Rounds: 2, DepartEvery: 2, ChurnEvery: 5}
	seqs := make([][]streamclient.Event, len(instances))
	for ti, in := range instances {
		churn := 0
		for _, ev := range cw.EventsForInstance(in, ti) {
			seqs[ti] = append(seqs[ti], clusterEventWire(ev))
			if ev.Type == videodist.ClusterStreamArrival {
				continue
			}
			if churn++; churn%w.resolveEvery == 0 {
				seqs[ti] = append(seqs[ti], streamclient.Event{Tenant: ti, Type: "resolve", Install: true})
			}
		}
	}
	return interleave(seqs), nil
}

// flashSchedule merges a Zipf flash crowd with a day of diurnal
// channel and gateway churn.
func flashSchedule(w *workload, _ []*mmd.Instance, seed int64) ([]streamclient.Event, error) {
	z := generator.ZipfFlashCrowd{Tenants: w.tenants, Channels: w.channels, Gateways: w.gateways, Seed: seed, Rounds: 6}
	crowd, err := z.Generate()
	if err != nil {
		return nil, err
	}
	churn, err := generator.Diurnal{
		Tenants: w.tenants, Channels: w.channels, Gateways: w.gateways,
		Seed: seed + 1, Days: 1, ExcludeChannel: z.CrowdChannel,
	}.Generate()
	if err != nil {
		return nil, err
	}
	return generatorWire(generator.Merge(crowd, churn)), nil
}

// crowdSchedule is a Zipf flash crowd alone.
func crowdSchedule(w *workload, _ []*mmd.Instance, seed int64) ([]streamclient.Event, error) {
	crowd, err := generator.ZipfFlashCrowd{
		Tenants: w.tenants, Channels: w.channels, Gateways: w.gateways, Seed: seed, Rounds: 6,
	}.Generate()
	if err != nil {
		return nil, err
	}
	return generatorWire(crowd), nil
}

func generatorWire(evs []generator.Event) []streamclient.Event {
	out := make([]streamclient.Event, len(evs))
	for i, ev := range evs {
		out[i] = streamclient.Event{
			Tenant: ev.Tenant, Type: string(ev.Type), Stream: ev.Stream,
			User: ev.User, CatalogID: ev.CatalogID,
		}
	}
	return out
}

// hooks are the traced run's wrappers; the zero value installs none.
type hooks struct {
	tr *tracer
	// listener counts the client-facing server's stream connections.
	listener *ioCounts
	// wal wraps the WAL's segment files.
	wal *walStats
	// catalogClient and catalogServer receive the spies wrapped around
	// each node's catalog wire client and the registry behind its
	// listener (fleet); catalogClient alone receives the spy around an
	// in-process registry passed as CatalogOptions.Remote (remoteCatalog).
	catalogClient, catalogServer *[]*catalogSpy
	// remoteCatalog runs a single-process stack without the WAL and with
	// its registry wrapped and passed as CatalogOptions.Remote.
	remoteCatalog bool
	// dial counts the router's upstream node connections.
	dial *dialCounter
}

// stack is one running deployment of a workload's shape.
type stack struct {
	url     string // where the load generator connects
	cluster *videodist.Cluster
	nodes   []*videodist.Cluster
	reg     *catalog.Registry
	router  *fleet.Router
	front   *httptest.Server   // the listener url points at
	nodeSrv []*httptest.Server // fleet nodes
	catSrv  []*httptest.Server // catalog service listeners
	walDir  string
}

func (w *workload) tenantConfigs(instances []*mmd.Instance) []videodist.ClusterTenant {
	out := make([]videodist.ClusterTenant, len(instances))
	for i, in := range instances {
		out[i] = videodist.ClusterTenant{Instance: in}
	}
	return out
}

// clusterOptions is the single-process configuration (a fleet node
// differs only in its shard count and remote catalog).
func (w *workload) clusterOptions(walDir string, h hooks) videodist.ClusterOptions {
	opts := videodist.ClusterOptions{Shards: 8, BatchSize: 16}
	if w.catalog {
		opts.Catalog = &videodist.CatalogOptions{Streams: w.bindings(), CostModel: w.costModel()}
	}
	if w.durable && !h.remoteCatalog {
		opts.WAL = &videodist.WALOptions{Dir: walDir, Sync: videodist.WALSyncBatch}
		if h.wal != nil {
			opts.WAL.FS = spyFS{h.wal}
		}
	}
	return opts
}

func startServer(handler http.Handler, counts *ioCounts) *httptest.Server {
	srv := httptest.NewUnstartedServer(handler)
	if counts != nil {
		srv.Listener = countingListener{Listener: srv.Listener, c: counts}
	}
	srv.Start()
	return srv
}

// newCluster builds the single-process cluster. With h.remoteCatalog
// its registry is built here, wrapped, and passed in as
// CatalogOptions.Remote; the cluster closes it on Close.
func (w *workload) newCluster(instances []*mmd.Instance, walDir string, h hooks) (*videodist.Cluster, error) {
	opts := w.clusterOptions(walDir, h)
	if h.remoteCatalog {
		reg, err := catalog.NewRegistry(w.bindings(), w.costModel())
		if err != nil {
			return nil, err
		}
		spy := &catalogSpy{Service: reg, name: "catalog", tr: h.tr}
		*h.catalogClient = append(*h.catalogClient, spy)
		opts.Catalog.Remote = spy
		c, err := videodist.NewCluster(w.tenantConfigs(instances), opts)
		if err != nil {
			reg.Close()
		}
		return c, err
	}
	return videodist.NewCluster(w.tenantConfigs(instances), opts)
}

// startStack builds and starts the workload's deployment. walDir must
// not exist yet when the workload is durable.
func (w *workload) startStack(instances []*mmd.Instance, walDir string, h hooks) (*stack, error) {
	if w.fleet {
		return w.startFleet(instances, h)
	}
	c, err := w.newCluster(instances, walDir, h)
	if err != nil {
		return nil, err
	}
	st := &stack{cluster: c, walDir: walDir}
	st.front = startServer(httpserve.NewHandler(c), h.listener)
	st.url = st.front.URL
	return st, nil
}

// fleetNodes and fleetPlan shape the fleet-router deployment: two
// nodes, each a 4-shard cluster, under an 8-shard routing plan.
const (
	fleetNodes      = 2
	fleetNodeShards = 4
)

// startFleet builds a catalog service, the nodes and a router, all on
// loopback. The registry listens once per node so that the traced run
// can pair each node's round trips with the registry calls they caused;
// it is still one registry with one owner goroutine.
func (w *workload) startFleet(instances []*mmd.Instance, h hooks) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.reg, err = catalog.NewRegistry(w.bindings(), w.costModel())
	if err != nil {
		return nil, err
	}
	urls := make([]string, fleetNodes)
	for k := range urls {
		var svc catalog.Service = st.reg
		if h.catalogServer != nil {
			spy := &catalogSpy{Service: st.reg}
			*h.catalogServer = append(*h.catalogServer, spy)
			svc = spy
		}
		catSrv := startServer(remote.NewHandler(svc), nil)
		st.catSrv = append(st.catSrv, catSrv)
		rc, err := remote.Dial(catSrv.URL, remote.Options{})
		if err != nil {
			return nil, err
		}
		var client catalog.Service = rc
		if h.catalogClient != nil {
			spy := &catalogSpy{Service: rc, name: "remote", tr: h.tr}
			*h.catalogClient = append(*h.catalogClient, spy)
			client = spy
		}
		opts := w.clusterOptions("", h)
		opts.Shards = fleetNodeShards
		opts.Catalog.Remote = client
		node, err := videodist.NewCluster(w.tenantConfigs(instances), opts)
		if err != nil {
			rc.Close()
			return nil, err
		}
		st.nodes = append(st.nodes, node)
		nodeSrv := startServer(httpserve.NewHandler(node), nil)
		st.nodeSrv = append(st.nodeSrv, nodeSrv)
		urls[k] = nodeSrv.URL
	}
	ropts := fleet.Options{
		Plan:  fleet.Plan{Nodes: fleetNodes, Shards: fleetNodes * fleetNodeShards},
		Nodes: urls,
		ID:    "perfbench",
	}
	if h.dial != nil {
		ropts.Dial = h.dial.dial
	}
	st.router, err = fleet.NewRouter(ropts)
	if err != nil {
		return nil, err
	}
	st.front = startServer(st.router.Handler(), h.listener)
	st.url = st.front.URL
	return st, nil
}

// close tears the deployment down front to back, so that no server
// waits on a long-lived stream whose client is still up: the front
// listener, the router's upstream sessions, the nodes' listeners, the
// clusters (which close their catalog wire clients), and last the
// catalog service.
func (st *stack) close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	shut := func(srv *httptest.Server) {
		srv.CloseClientConnections()
		srv.Close()
	}
	if st.front != nil {
		shut(st.front)
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, srv := range st.nodeSrv {
		shut(srv)
	}
	if st.cluster != nil {
		keep(st.cluster.Close())
	}
	for _, n := range st.nodes {
		keep(n.Close())
	}
	for _, srv := range st.catSrv {
		shut(srv)
	}
	if st.reg != nil {
		st.reg.Close()
	}
	return firstErr
}

// removeWAL deletes a stack's log directory.
func removeWAL(dir string) error {
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}
