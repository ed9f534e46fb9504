package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/streamclient"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{10000, 0.999, 9990, true},
		{9999, 0.999, 0, false},
	}
	for _, c := range cases {
		samples := ramp(c.n)
		got, ok := percentile(samples, c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if samples[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if _, ok := windowedPercentile(ramp(2500), 1000, 0.99); !ok {
		t.Errorf("two full windows of 1000 should support a p99")
	}
	if _, ok := windowedPercentile(ramp(999), 1000, 0.99); ok {
		t.Errorf("no full window should report nothing")
	}
}

// stallServer answers every stream line with its result line, in
// order, but stalls once before answering line stallAt.
func stallServer(stallAt int, stall time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		_ = rc.Flush()
		sc := bufio.NewScanner(r.Body)
		for i := 0; sc.Scan(); i++ {
			if i == stallAt {
				time.Sleep(stall)
			}
			fmt.Fprintf(w, "{\"seq\":%d}\n", i)
			_ = rc.Flush()
		}
	}))
}

func TestDueTimeLatencyChargesStallToLaterRequests(t *testing.T) {
	const (
		rate    = 1000.0 // one event per ms
		stallAt = 10
		stall   = 60 * time.Millisecond
	)
	srv := stallServer(stallAt, stall)
	defer srv.Close()
	cycle := []streamclient.Event{{Tenant: 0, Type: "offer"}}
	g, err := dialLoadgen(srv.URL, cycle, nil)
	if err != nil {
		t.Fatal(err)
	}
	open, err := g.paced(rate, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.close(); err != nil {
		t.Fatal(err)
	}
	if g.failures() != 0 {
		t.Fatalf("%d failed results", g.failures())
	}
	lat := open.latencyUs
	if len(lat) != 100 {
		t.Fatalf("%d samples, want 100", len(lat))
	}
	// Every event due during the stall waits for its end: its latency
	// from its due time covers the rest of the stall, although its own
	// service after the stall is immediate.
	stallUs := float64(stall.Microseconds())
	for j := stallAt; j < stallAt+50; j++ {
		if left := stallUs - float64(j-stallAt)*1e3; lat[j] < left {
			t.Errorf("event %d: latency %.0f us, but %.0f us of the stall were still ahead of it when it was due", j, lat[j], left)
		}
	}
	if lat[stallAt-1] >= stallUs {
		t.Errorf("event %d, answered before the stall, was charged for it: %.0f us", stallAt-1, lat[stallAt-1])
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		children []span
		want     int64
	}{
		{nil, 100},
		{[]span{{Start: 10, End: 30}}, 80},
		// Overlapping children count once; a child running past the
		// parent's end is clipped to it.
		{[]span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}}, 50},
		{[]span{{Start: -20, End: 5}, {Start: 95, End: 99}}, 91},
		{[]span{{Start: 0, End: 100}, {Start: 40, End: 60}}, 0},
		{[]span{{Start: 200, End: 300}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.children, got, c.want)
		}
	}
}

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		instances, err := w.instances()
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.schedule(w, instances, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.schedule(w, instances, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules (%d and %d events)", w.name, len(a), len(b))
		}
		held, err := w.schedule(w, instances, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, held) {
			t.Errorf("%s: held-out seed 8 gave the same schedule as seed 7", w.name)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric and
// workload tables equal to BENCHMARK.json's.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var docNames []string
	for _, w := range doc.Workloads {
		docNames = append(docNames, w.Name)
	}
	if !reflect.DeepEqual(names, docNames) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, docNames)
	}
	check := func(list string, defs []metricDef, doc []struct{ Name, Unit string }) {
		if len(defs) != len(doc) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", list, len(defs), len(doc))
			return
		}
		for i, d := range defs {
			if d.name != doc[i].Name || d.unit != doc[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", list, i, d.name, d.unit, doc[i].Name, doc[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}
