package chaos_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/httpserve"
	"repro/internal/wal"
	"repro/streamclient"
)

// tornSessionEvents are one session's two events: seq 1 to tenant 0 on
// shard 0, whose segment the tear swallows, and seq 2 to tenant 1 on
// shard 1, whose record survives.
var tornSessionEvents = []streamclient.Event{
	{Seq: 1, Tenant: 0, Type: "offer", Stream: 3},
	{Seq: 2, Tenant: 1, Type: "offer", Stream: 3},
}

// sendSession sends events on one X-Stream-Session connection to url
// and returns their results.
func sendSession(t *testing.T, url, id string, events []streamclient.Event) []streamclient.Result {
	t.Helper()
	conn, err := streamclient.DialWith(url, streamclient.DialOptions{
		Header: map[string]string{"X-Stream-Session": id},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, ev := range events {
		if err := conn.Send(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.CloseSend(); err != nil {
		t.Fatal(err)
	}
	out := make([]streamclient.Result, len(events))
	for i := range out {
		res, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if res.Error != "" || res.Seq != int(events[i].Seq) {
			t.Fatalf("result %d = %+v", i, res)
		}
		out[i] = res
	}
	return out
}

// tornSessionFleet is a two-shard WAL-backed fleet whose shard-0
// segment is torn at its first byte, and a fault-free control that
// applied the session's two events once.
func tornSessionFleet(t *testing.T) (doomed *cluster.Cluster, dir, want string) {
	t.Helper()
	doomed, dir = faultFleet(t, 2, chaos.NewFS(nil, chaos.FileFault{Match: "-s0.", TornTailAt: 1}))
	control, _ := faultFleet(t, 2, nil)
	for _, ev := range tornSessionEvents {
		if _, err := control.Apply(context.Background(), ev.Routed()); err != nil {
			t.Fatal(err)
		}
	}
	want = renderAll(t, control)
	if err := control.Close(); err != nil {
		t.Fatal(err)
	}
	return doomed, dir, want
}

// recoverTorn recovers a tornSessionFleet's log on a clean disk. Only
// seq 2's record survived the tear.
func recoverTorn(t *testing.T, dir string) *cluster.Cluster {
	t.Helper()
	rec, rep, err := cluster.Recover(tenantsLike(t), cluster.Options{
		Shards: 2, BatchSize: 4,
		Catalog: &cluster.CatalogOptions{
			Streams: catalog.IdentityBindings(4, 8, func(s int) catalog.ID {
				return catalog.ID(fmt.Sprintf("ch-%03d", s))
			}),
			CostModel: catalog.Isolated{},
		},
		WAL: &cluster.WALOptions{Dir: dir, Sync: wal.SyncBatch},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	if rep.Events != 1 {
		t.Fatalf("recovery replayed %d events, want 1 (seq 2 alone)", rep.Events)
	}
	return rec
}

// checkResumed requires the resume's answers — seq 1 applied, seq 2 a
// dup — and the recovered fleet to render like the control.
func checkResumed(t *testing.T, got []streamclient.Result, rec *cluster.Cluster, want string) {
	t.Helper()
	if got[0].Dup || got[0].Offer == nil || !got[1].Dup {
		t.Fatalf("resumed answers = %+v, %+v; want seq 1 applied and seq 2 a dup", got[0], got[1])
	}
	if r := renderAll(t, rec); r != want {
		t.Fatalf("recovered fleet diverges from a control that applied each event once:\n got: %s\nwant: %s", r, want)
	}
}

// TestSessionResumeAfterTornShard crashes a two-shard node after one
// session stream sent seq 1 to shard 0 and seq 2 to shard 1, with
// shard 0's segment torn so only seq 2 is durable. The recovered
// cluster rebuilds the session's applied set as {2}, not "everything up
// to 2": the resumed stream has seq 1 applied and seq 2 answered as a
// dup.
func TestSessionResumeAfterTornShard(t *testing.T) {
	doomed, dir, want := tornSessionFleet(t)
	srv := httptest.NewServer(httpserve.NewHandler(doomed))
	sendSession(t, srv.URL, "s1", tornSessionEvents)
	srv.Close()
	// Crash: doomed is abandoned without Close.

	rec := recoverTorn(t, dir)
	srv = httptest.NewServer(httpserve.NewHandler(rec))
	defer srv.Close()
	checkResumed(t, sendSession(t, srv.URL, "s1", tornSessionEvents), rec, want)
}

// TestRouterSessionResumeAfterTornShard is the same crash through a
// router: the node's upstream session carries the client's events, and
// a replacement router with the same ID, in front of the recovered
// node, replays the client's session from seq 1 onto the same node
// session.
func TestRouterSessionResumeAfterTornShard(t *testing.T) {
	doomed, dir, want := tornSessionFleet(t)
	router := func(nodeURL string) (*fleet.Router, *httptest.Server) {
		rt, err := fleet.NewRouter(fleet.Options{
			Plan: fleet.Plan{Nodes: 1, Shards: 2}, Nodes: []string{nodeURL}, ID: "rt",
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt, httptest.NewServer(rt.Handler())
	}
	node := httptest.NewServer(httpserve.NewHandler(doomed))
	rt, rtSrv := router(node.URL)
	sendSession(t, rtSrv.URL, "c", tornSessionEvents)
	rtSrv.Close()
	rt.Close()
	node.Close()
	// Crash: doomed is abandoned without Close, and the router is gone.

	rec := recoverTorn(t, dir)
	node = httptest.NewServer(httpserve.NewHandler(rec))
	defer node.Close()
	rt, rtSrv = router(node.URL)
	defer rt.Close()
	defer rtSrv.Close()
	checkResumed(t, sendSession(t, rtSrv.URL, "c", tornSessionEvents), rec, want)
}
