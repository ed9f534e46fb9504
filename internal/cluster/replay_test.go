package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/wal"
)

// TestLogVocabularyRoundTrips pins the log's two token tables: every
// routed event type and every settlement op round-trips through its
// token, the tokens of each table are distinct (and no event token is a
// registry-plane record type), and replay refuses a token it does not
// know — in an event record's type and in a settlement record's op —
// naming it.
func TestLogVocabularyRoundTrips(t *testing.T) {
	seen := map[string]bool{wal.TypeCatalogAcquire: true, wal.TypeCatalogSettle: true}
	for typ := EventStreamArrival; typ <= EventResolve; typ++ {
		tok := eventTokens[typ]
		if tok == "" || seen[tok] {
			t.Errorf("event type %d: token %q is empty or not distinct", typ, tok)
		}
		seen[tok] = true
		if back := EventType(fromToken(eventTokens[:], tok)); back != typ {
			t.Errorf("event token %q reads back as type %d, want %d", tok, back, typ)
		}
	}
	seen = map[string]bool{}
	for op := catalog.SettleCommit; op <= catalog.SettleAdopt; op++ {
		tok := settleTokens[op]
		if tok == "" || seen[tok] {
			t.Errorf("settle op %d: token %q is empty or not distinct", op, tok)
		}
		seen[tok] = true
		if back := catalog.SettleOp(fromToken(settleTokens[:], tok)); back != op {
			t.Errorf("settle token %q reads back as op %d, want %d", tok, back, op)
		}
	}

	const tenants, channels, gateways, seed = 3, 10, 5, 9650
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	steps := catalogScheduleFor(tenants, channels, 43)
	for _, tc := range []struct {
		name, writer, token, bad, want string
	}{
		{"event type", wal.ShardWriter(0), `"type":"stream_arrival"`, `"type":"stream_arrivxl"`,
			`unexpected type "stream_arrivxl"`},
		{"settle op", wal.CatalogWriter, `"op":"commit"`, `"op":"commot"`,
			`unknown settle op "commot"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
				&WALOptions{Dir: dir, Sync: wal.SyncNone})
			driveCatalogSchedule(t, c, steps, 0)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, "seg-000001-"+tc.writer+".ndjson")
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			tampered := strings.Replace(string(data), tc.token, tc.bad, 1)
			if tampered == string(data) {
				t.Fatalf("%s holds no %s", filepath.Base(seg), tc.token)
			}
			if err := os.WriteFile(seg, []byte(tampered), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = Recover(walTenantConfigs(t, tenants, channels, gateways, seed),
				walFleetOptions(tenants, channels, 2, model, &WALOptions{Dir: dir, Sync: wal.SyncNone}))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay of an unknown token: err %v, want %q", err, tc.want)
			}
		})
	}
}

// TestWALManyFences recovers a log whose automatic checkpoints leave
// several manifests. The one-pass replay verifies every manifest as a
// fence, and a tampered render in the middle manifest fails recovery
// at that fence, naming its generation.
func TestWALManyFences(t *testing.T) {
	const tenants, channels, gateways, seed = 3, 12, 5, 9700
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	dir := t.TempDir()
	listManifests := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	c := walCatalogFleet(t, tenants, channels, gateways, seed, 2, model,
		&WALOptions{Dir: dir, Sync: wal.SyncNone, CheckpointEvery: 16})
	// Each third of the schedule logs about 90 records, so it kicks the
	// checkpoint goroutine; waiting for a new manifest after each third
	// makes sure the log holds at least three automatic fences.
	steps := catalogScheduleFor(tenants, channels, 47)
	for part := 0; part < 3; part++ {
		before := len(listManifests())
		from, to := part*len(steps)/3, (part+1)*len(steps)/3
		driveCatalogSchedule(t, c, steps[from:to], from)
		for deadline := time.Now().Add(10 * time.Second); len(listManifests()) == before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("part %d: no automatic checkpoint", part)
			}
		}
	}
	wantTen, wantCat := fleetRenders(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	manifests := listManifests()
	if len(manifests) < 4 {
		t.Fatalf("got %d manifests, want at least three automatic ones and the close", len(manifests))
	}
	recoverOpts := walFleetOptions(tenants, channels, 3, model, &WALOptions{Dir: dir, Sync: wal.SyncNone})

	// Tamper the middle manifest (Glob sorts, and the names sort by
	// generation). Recovery fails before it goes live, so the log is
	// left as it was, and restoring the manifest restores it.
	mid := manifests[len(manifests)/2]
	orig, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	var m wal.Manifest
	if err := json.Unmarshal(orig, &m); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(orig), "\"tenants_render\": \"", "\"tenants_render\": \"X", 1)
	if tampered == string(orig) {
		t.Fatal("tamper replacement did not apply")
	}
	if err := os.WriteFile(mid, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(walTenantConfigs(t, tenants, channels, gateways, seed), recoverOpts)
	if want := fmt.Sprintf("diverges from checkpoint gen %d ", m.Gen); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("tampered middle manifest (gen %d of %d): err %v, want %q", m.Gen, len(manifests), err, want)
	}
	if err := os.WriteFile(mid, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, rep, err := Recover(walTenantConfigs(t, tenants, channels, gateways, seed), recoverOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.FencesVerified != len(manifests) || !rep.CheckpointVerified {
		t.Fatalf("verified %d fences (verified=%v), want all %d manifests", rep.FencesVerified, rep.CheckpointVerified, len(manifests))
	}
	if gotTen, gotCat := fleetRenders(t, rec); gotTen != wantTen || gotCat != wantCat {
		t.Fatal("recovered state diverges from the closed fleet")
	}
}
