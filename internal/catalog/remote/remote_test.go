package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/streamclient"
)

// newPair builds the parity rig: one registry behind the wire (served
// by NewHandler, driven through a Client) and one identical in-process
// registry, so every step can be applied to both and compared.
func newPair(t *testing.T, model catalog.CostModel) (wire catalog.Service, local catalog.Service, done func()) {
	t.Helper()
	id := func(s int) catalog.ID { return catalog.ID(fmt.Sprintf("ch-%03d", s)) }
	remoteReg, err := catalog.NewRegistry(catalog.IdentityBindings(4, 6, id), model)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	localReg, err := catalog.NewRegistry(catalog.IdentityBindings(4, 6, id), model)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	srv := httptest.NewServer(NewHandler(remoteReg))
	client, err := Dial(srv.URL, Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return client, localReg, func() {
		client.Close()
		srv.Close()
		remoteReg.Close()
		localReg.Close()
	}
}

// TestWireParity drives the same operation sequence through the wire
// client and an identical in-process registry and requires identical
// outcomes at every step, including the rendered snapshot — the wire
// lift must be invisible to the protocol.
func TestWireParity(t *testing.T) {
	for _, model := range []catalog.CostModel{catalog.Isolated{}, catalog.SharedOrigin{ReplicationFraction: 0.25}} {
		t.Run(model.Name(), func(t *testing.T) {
			wire, local, done := newPair(t, model)
			defer done()

			both := []catalog.Service{wire, local}

			// Acquire: same tickets on both sides.
			for _, tenant := range []int{0, 1, 2} {
				var tks [2]catalog.Ticket
				for i, svc := range both {
					tk, err := svc.Acquire("ch-000", tenant)
					if err != nil {
						t.Fatalf("Acquire(ch-000, %d) [%d]: %v", tenant, i, err)
					}
					tks[i] = tk
				}
				if !reflect.DeepEqual(tks[0], tks[1]) {
					t.Fatalf("Acquire(ch-000, %d): wire ticket %+v != local %+v", tenant, tks[0], tks[1])
				}
				// Commit each admission so the next tenant prices from a
				// confirmed reference.
				ops := []catalog.Settlement{{Op: catalog.SettleCommit, ID: "ch-000", Tenant: tenant,
					Full: 10, Charged: 10 * tks[0].Scale, Origin: tks[0].OriginPayer}}
				for i, svc := range both {
					out := make([]catalog.SettleResult, 1)
					if err := svc.SettleBatch(ops, out); err != nil {
						t.Fatalf("SettleBatch commit [%d]: %v", i, err)
					}
					if want := tenant + 1; out[0].Refs != want {
						t.Fatalf("SettleBatch commit [%d]: refs %d, want %d", i, out[0].Refs, want)
					}
				}
			}

			// AcquireBatch + batched release settlement.
			ids := []catalog.ID{"ch-001", "ch-002", "ch-003"}
			var batches [2][]catalog.Ticket
			for i, svc := range both {
				out := make([]catalog.Ticket, len(ids))
				if err := svc.AcquireBatch(3, ids, out); err != nil {
					t.Fatalf("AcquireBatch [%d]: %v", i, err)
				}
				batches[i] = out
			}
			if !reflect.DeepEqual(batches[0], batches[1]) {
				t.Fatalf("AcquireBatch: wire %+v != local %+v", batches[0], batches[1])
			}
			rel := make([]catalog.Settlement, len(ids))
			for j, id := range ids {
				rel[j] = catalog.Settlement{Op: catalog.SettleReleasePending, ID: id, Tenant: 3,
					Origin: batches[0][j].OriginPayer}
			}
			for i, svc := range both {
				if err := svc.SettleBatch(rel, nil); err != nil {
					t.Fatalf("SettleBatch release (nil out) [%d]: %v", i, err)
				}
			}

			// Lookup parity.
			for i, svc := range both {
				local, err := svc.Lookup("ch-000", 1)
				if err != nil {
					t.Fatalf("Lookup [%d]: %v", i, err)
				}
				if local != 0 {
					t.Fatalf("Lookup [%d]: local %d, want 0", i, local)
				}
			}

			// Release parity (confirmed reference, tenant 2 departs).
			var refs [2]int
			var evicted [2]bool
			for i, svc := range both {
				refs[i], evicted[i] = svc.Release("ch-000", 2, true, false)
			}
			if refs[0] != refs[1] || evicted[0] != evicted[1] {
				t.Fatalf("Release: wire (%d,%v) != local (%d,%v)", refs[0], evicted[0], refs[1], evicted[1])
			}

			// Snapshot renders byte-identically.
			ws, ls := wire.Snapshot(), local.Snapshot()
			if ws == nil || ls == nil {
				t.Fatalf("Snapshot: wire %v local %v", ws, ls)
			}
			if ws.Render() != ls.Render() {
				t.Fatalf("snapshot render mismatch:\nwire:\n%s\nlocal:\n%s", ws.Render(), ls.Render())
			}
		})
	}
}

// TestWireSentinels requires the wire to carry the catalog sentinels:
// remote errors must errors.Is-match exactly as in-process ones do.
func TestWireSentinels(t *testing.T) {
	wire, _, done := newPair(t, catalog.Isolated{})
	defer done()

	if _, err := wire.Acquire("no-such-stream", 0); !errors.Is(err, catalog.ErrUnknownID) {
		t.Fatalf("Acquire(unknown): err %v, want ErrUnknownID", err)
	}
	if _, err := wire.Acquire("ch-000", 99); !errors.Is(err, catalog.ErrNotBound) {
		t.Fatalf("Acquire(unbound tenant): err %v, want ErrNotBound", err)
	}
}

// TestWireRetiredOps pins the wire to the node protocol: a request for
// a durability-plane op gets the unknown-op reply, and the connection
// keeps serving.
func TestWireRetiredOps(t *testing.T) {
	reg, err := catalog.NewRegistry(catalog.IdentityBindings(2, 2, func(s int) catalog.ID {
		return catalog.ID(fmt.Sprintf("ch-%03d", s))
	}), nil)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	conn, err := streamclient.DialWith(srv.URL, streamclient.DialOptions{Path: WirePath})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	roundTrip := func(line string) wireResp {
		t.Helper()
		if err := conn.SendRaw([]byte(line)); err != nil {
			t.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatal(err)
		}
		raw, err := conn.RecvRaw()
		if err != nil {
			t.Fatalf("reply to %s: %v", line, err)
		}
		var resp wireResp
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("reply to %s: %s: %v", line, raw, err)
		}
		return resp
	}
	for _, line := range retiredOpLines {
		var req wireReq
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			t.Fatal(err)
		}
		want := wireResp{Error: fmt.Sprintf("unknown op %q", req.Op)}
		if resp := roundTrip(line); !reflect.DeepEqual(resp, want) {
			t.Errorf("reply to %s = %+v, want %+v", line, resp, want)
		}
	}
	if resp := roundTrip(`{"op":"acquire","id":"ch-001","tenant":1}`); resp.Ticket == nil || resp.Ticket.Local != 1 {
		t.Fatalf("acquire after the retired ops: %+v", resp)
	}
}

// TestWireClosedRegistry requires a closed remote registry to surface
// catalog.ErrClosed through the wire.
func TestWireClosedRegistry(t *testing.T) {
	reg, err := catalog.NewRegistry(catalog.IdentityBindings(2, 2, func(s int) catalog.ID {
		return catalog.ID(fmt.Sprintf("ch-%03d", s))
	}), nil)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client, err := Dial(srv.URL, Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	reg.Close()
	if _, err := client.Acquire("ch-000", 0); !errors.Is(err, catalog.ErrClosed) {
		t.Fatalf("Acquire after registry close: err %v, want ErrClosed", err)
	}
	if snap := client.Snapshot(); snap != nil {
		t.Fatalf("Snapshot after registry close: %+v, want nil", snap)
	}
}

// TestWireConcurrent hammers one client from several goroutines (the
// shape of a node's shard workers sharing the node's connection): the
// mutex must serialize request/reply pairing so every ticket matches
// its own acquire.
func TestWireConcurrent(t *testing.T) {
	wire, _, done := newPair(t, catalog.SharedOrigin{})
	defer done()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for tenant := 0; tenant < 4; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				id := catalog.ID(fmt.Sprintf("ch-%03d", iter%6))
				tk, err := wire.Acquire(id, tenant)
				if err != nil {
					errs <- fmt.Errorf("tenant %d: Acquire(%s): %w", tenant, id, err)
					return
				}
				if tk.Local != iter%6 {
					errs <- fmt.Errorf("tenant %d: Acquire(%s): local %d, want %d (reply misrouted)", tenant, id, tk.Local, iter%6)
					return
				}
				wire.Release(id, tenant, false, tk.OriginPayer)
			}
		}(tenant)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every provisional reference released: refcounts all zero.
	snap := wire.Snapshot()
	if snap == nil {
		t.Fatal("Snapshot: nil")
	}
	for _, e := range snap.Entries {
		if e.Refs != 0 {
			t.Fatalf("stream %s: refs %d after full release, want 0", e.ID, e.Refs)
		}
	}
}
