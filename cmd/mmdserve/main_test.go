package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpserve"
)

func defaultTestConfig() config {
	return config{
		tenants: 4, shards: 2, channels: 12, gateways: 4,
		rounds: 2, batch: 4, departEvery: 3, churnEvery: 5,
		resolveEvery: 8, seed: 21, policy: "online",
	}
}

func TestRunProducesReport(t *testing.T) {
	var out, timing bytes.Buffer
	if err := run(defaultTestConfig(), &out, &timing); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"mmdserve: policy=online", "fleet: 4 tenants on 2 shards",
		"feasible  true", "shard  tenants", "tenant  policy",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if !strings.Contains(timing.String(), "events/s") {
		t.Fatalf("timing line missing: %q", timing.String())
	}
}

// TestRunByteIdentical is the CLI half of the determinism acceptance
// check: the stdout report of a fixed-seed run is byte-identical across
// invocations (timing goes to stderr precisely so this holds).
func TestRunByteIdentical(t *testing.T) {
	render := func() []byte {
		t.Helper()
		var out bytes.Buffer
		if err := run(defaultTestConfig(), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ across identical invocations:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestDriveParityAcrossVias is the in-repo version of the CI streaming
// smoke: the same synthetic workload driven against three identically
// configured remote fleets — over one /v1/stream connection, as :batch
// posts, and as single posts — prints byte-identical per-tenant tables
// (all three paths preserve per-tenant submission order).
func TestDriveParityAcrossVias(t *testing.T) {
	cfg := defaultTestConfig()
	outputs := map[string]string{}
	for _, via := range []string{"stream", "batch", "single"} {
		c, _, err := buildCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(httpserve.NewHandler(c))
		var out bytes.Buffer
		if err := drive(cfg, ts.URL, via, &out, io.Discard); err != nil {
			t.Fatalf("drive via %s: %v", via, err)
		}
		ts.Close()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		outputs[via] = out.String()
	}
	if outputs["stream"] == "" || !strings.Contains(outputs["stream"], "tenant  policy") {
		t.Fatalf("stream output not a tenant table:\n%s", outputs["stream"])
	}
	if outputs["stream"] != outputs["batch"] || outputs["stream"] != outputs["single"] {
		t.Fatalf("tenant tables diverge across -via modes:\n--- stream\n%s\n--- batch\n%s\n--- single\n%s",
			outputs["stream"], outputs["batch"], outputs["single"])
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := defaultTestConfig()
	cfg.tenants = 0
	if err := run(cfg, io.Discard, io.Discard); err == nil {
		t.Fatal("zero tenants accepted")
	}
	cfg = defaultTestConfig()
	cfg.policy = "nope"
	if err := run(cfg, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestServerDropsStalledHeaders pins the listener's header timeout: a
// client that sends a request line and then stalls before the blank
// line ending its headers gets its connection closed, instead of
// holding it open forever.
func TestServerDropsStalledHeaders(t *testing.T) {
	defer func(d time.Duration) { headerTimeout = d }(headerTimeout)
	headerTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), http.NotFoundHandler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: mmdserve\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server still holds a connection whose headers never finished")
	}
}

// TestRolesRefuseWALDir pins that every -role refuses -wal-dir before
// it listens: each is handed an address the test already holds, so a
// role that ignored the flag would fail to listen instead.
func TestRolesRefuseWALDir(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := defaultTestConfig()
	cfg.walDir = t.TempDir()
	url := "http://" + ln.Addr().String()
	for _, role := range []string{"node", "catalog", "router"} {
		err := serveHTTP(cfg, role, ln.Addr().String(), url, url, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-wal-dir") {
			t.Errorf("-role %s -wal-dir: err %v, want a refusal naming -wal-dir", role, err)
		}
	}
}

// TestRouterRefusesCatalogURL pins that -role router refuses
// -catalog-url before it listens, naming the flag: the router reads
// the catalog through its nodes.
func TestRouterRefusesCatalogURL(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	url := "http://" + ln.Addr().String()
	err = serveHTTP(defaultTestConfig(), "router", ln.Addr().String(), url, url, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-catalog-url") {
		t.Errorf("-role router -catalog-url: err %v, want a refusal naming -catalog-url", err)
	}
}
