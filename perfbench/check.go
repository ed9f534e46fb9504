package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/headend"
	"repro/internal/mmd"
	"repro/streamclient"
)

// localOf maps a CatalogID of the ch-%03d convention to its local
// stream index (identity bindings: the same index at every tenant).
func localOf(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "ch-"))
	if err != nil {
		return -1
	}
	return n
}

// carriage models, from the result lines alone, which tenants hold a
// fleet reference on each catalog channel: a tenant holds one exactly
// while it carries the channel's local stream and got it through a
// catalog admission. It is written by the receiver goroutine and read
// only after every result is in (the ack counter orders the two).
type carriage struct {
	cycle   []streamclient.Event
	carried [][]bool // [tenant][local stream]
	viaCat  [][]bool
}

func newCarriage(w *workload, cycle []streamclient.Event) *carriage {
	m := &carriage{cycle: cycle, carried: make([][]bool, w.tenants), viaCat: make([][]bool, w.tenants)}
	for t := range m.carried {
		m.carried[t] = make([]bool, w.channels)
		m.viaCat[t] = make([]bool, w.channels)
	}
	return m
}

var (
	acceptedMark = []byte(`"Accepted":true`)
	removedMark  = []byte(`"Removed":true`)
	admittedMark = []byte(`"admitted":true`)
	catRemoved   = []byte(`"removed":true`)
)

func (m *carriage) observe(i int, line []byte) {
	ev := &m.cycle[i%len(m.cycle)]
	local := ev.Stream
	if ev.CatalogID != "" {
		local = localOf(ev.CatalogID)
	}
	if ev.Tenant < 0 || ev.Tenant >= len(m.carried) || local < 0 || local >= len(m.carried[ev.Tenant]) {
		return
	}
	switch ev.Type {
	case "offer":
		if bytes.Contains(line, acceptedMark) {
			m.carried[ev.Tenant][local], m.viaCat[ev.Tenant][local] = true, false
		}
	case "catalog-offer":
		if bytes.Contains(line, admittedMark) {
			m.carried[ev.Tenant][local], m.viaCat[ev.Tenant][local] = true, true
		}
	case "depart":
		if bytes.Contains(line, removedMark) {
			m.carried[ev.Tenant][local] = false
		}
	case "catalog-depart":
		if bytes.Contains(line, catRemoved) {
			m.carried[ev.Tenant][local] = false
		}
	}
}

// check compares the registry's confirmed holders with the model.
func (m *carriage) check(snap *catalog.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("no catalog section in the fleet snapshot")
	}
	for _, e := range snap.Entries {
		s := localOf(string(e.ID))
		var want []int
		for t := range m.carried {
			if s >= 0 && s < len(m.carried[t]) && m.carried[t][s] && m.viaCat[t][s] {
				want = append(want, t)
			}
		}
		got := append([]int(nil), e.Holders...)
		sort.Ints(got)
		if fmt.Sprint(got) != fmt.Sprint(want) || e.Refs != len(want) {
			return fmt.Errorf("catalog %s: registry holds refs %d %v, carriage says %v", e.ID, e.Refs, got, want)
		}
	}
	return nil
}

// tenantRender is the per-tenant table of a set of head-ends.
func tenantRender(tenants []*headend.Tenant) string {
	fs := &videodist.FleetSnapshot{Tenants: make([]videodist.TenantSnapshot, len(tenants))}
	for i, t := range tenants {
		fs.Tenants[i] = t.Snapshot()
	}
	return fs.RenderTenants()
}

// directStats is what a direct head-end replay observed.
type directStats struct {
	offers, admits     int
	resolves, installs int
	resolveMs          []float64
	// solveInputs keeps a sample of the instances the re-solves ran on,
	// so the solver can be timed on its own afterwards.
	solveInputs []*mmd.Instance
}

// maxSolveSamples bounds the re-solve inputs a direct replay keeps.
const maxSolveSamples = 24

// directReplay applies cycle events [0, n) to fresh head-end tenants,
// with no cluster, catalog or wire: the single-event reference the
// serving stack's tables must match, and the ladder's bottom rung.
// Tenants are independent, so they are split over GOMAXPROCS workers
// the way shards split them. Catalog events become plain offers and
// departures of the local stream at full price.
func directReplay(instances []*mmd.Instance, cycle []streamclient.Event, n int, stats *directStats) ([]*headend.Tenant, error) {
	tenants := make([]*headend.Tenant, len(instances))
	for i, in := range instances {
		pol, err := headend.NewOnlinePolicy(in, true)
		if err != nil {
			return nil, err
		}
		if tenants[i], err = headend.NewTenant(in, pol); err != nil {
			return nil, err
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(tenants))
	per := make([]directStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := &per[k]
			for i := 0; i < n; i++ {
				ev := &cycle[i%len(cycle)]
				if ev.Tenant%workers != k {
					continue
				}
				if err := applyDirect(tenants[ev.Tenant], ev, st, stats != nil); err != nil {
					errs[k] = fmt.Errorf("event %d: %w", i, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k := range per {
		if errs[k] != nil {
			return nil, errs[k]
		}
		if stats != nil {
			stats.offers += per[k].offers
			stats.admits += per[k].admits
			stats.resolves += per[k].resolves
			stats.installs += per[k].installs
			stats.resolveMs = append(stats.resolveMs, per[k].resolveMs...)
			for _, in := range per[k].solveInputs {
				if len(stats.solveInputs) < maxSolveSamples {
					stats.solveInputs = append(stats.solveInputs, in)
				}
			}
		}
	}
	return tenants, nil
}

func applyDirect(t *headend.Tenant, ev *streamclient.Event, st *directStats, timed bool) error {
	local := ev.Stream
	if ev.CatalogID != "" {
		local = localOf(ev.CatalogID)
	}
	switch ev.Type {
	case "offer", "catalog-offer":
		st.offers++
		if len(t.OfferStream(local)) > 0 {
			st.admits++
		}
	case "depart", "catalog-depart":
		t.DepartStream(local)
	case "leave":
		t.UserLeave(ev.User)
	case "join":
		t.UserJoin(ev.User)
	case "resolve":
		if timed && len(st.solveInputs) < maxSolveSamples/2 {
			st.solveInputs = append(st.solveInputs, awayZeroed(t))
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		out, err := t.Resolve(core.Options{}, ev.Install)
		if err != nil {
			return err
		}
		if timed {
			st.resolveMs = append(st.resolveMs, float64(time.Since(t0))/1e6)
		}
		st.resolves++
		if out.Installed {
			st.installs++
		}
	default:
		return fmt.Errorf("unknown event type %q", ev.Type)
	}
	return nil
}

// awayZeroed is the instance a re-solve of t runs the solver on: its
// own, with offline gateways' utilities zeroed.
func awayZeroed(t *headend.Tenant) *mmd.Instance {
	in := t.Instance().Clone()
	for u := range in.Users {
		if t.Away(u) {
			for s := range in.Users[u].Utility {
				in.Users[u].Utility[s] = 0
			}
		}
	}
	return in
}

// serialReference submits cycle events [0, n) one at a time through a
// one-process cluster's session calls, catalog registry in process:
// the reference a serially forwarding router must reproduce.
func serialReference(w *workload, instances []*mmd.Instance, cycle []streamclient.Event, n int) (*videodist.FleetSnapshot, error) {
	c, err := videodist.NewCluster(w.tenantConfigs(instances), w.clusterOptions("", hooks{}))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		ev := &cycle[i%len(cycle)]
		switch ev.Type {
		case "offer":
			_, err = c.OfferStream(ctx, ev.Tenant, ev.Stream)
		case "depart":
			_, err = c.DepartStream(ctx, ev.Tenant, ev.Stream)
		case "leave":
			_, err = c.UserLeave(ctx, ev.Tenant, ev.User)
		case "join":
			_, err = c.UserJoin(ctx, ev.Tenant, ev.User)
		case "resolve":
			_, err = c.Resolve(ctx, ev.Tenant, videodist.ResolveOptions{Install: ev.Install})
		case "catalog-offer":
			_, err = c.OfferCatalogStream(ctx, ev.Tenant, videodist.CatalogID(ev.CatalogID))
		case "catalog-depart":
			_, err = c.DepartCatalogStream(ctx, ev.Tenant, videodist.CatalogID(ev.CatalogID))
		default:
			err = fmt.Errorf("unknown event type %q", ev.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("reference event %d: %w", i, err)
		}
	}
	return c.Snapshot()
}

// renders is the part of a fleet snapshot the checks compare: the
// per-tenant table and the catalog table.
func renders(fs *videodist.FleetSnapshot) string {
	out := fs.RenderTenants()
	if fs.Catalog != nil {
		out += fs.Catalog.Render()
	}
	return out
}

// firstDiff shows where two renders part, for the failure message.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "renders equal"
}
