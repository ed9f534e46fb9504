package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestE1HoldsOnReducedConfig(t *testing.T) {
	tab, err := E1GreedyRatio(E1Config{Trials: 6, Sizes: []int{8}, Users: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E1 verdict = %s", tab.Verdict)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatal("E1 table malformed")
	}
}

func TestE2HoldsOnReducedConfig(t *testing.T) {
	tab, err := E2ReducedBudget(E2Config{Trials: 8, Streams: 8, Users: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E2 verdict = %s", tab.Verdict)
	}
}

func TestE3HoldsOnReducedConfig(t *testing.T) {
	tab, err := E3SkewSweep(E3Config{Alphas: []float64{1, 16}, Trials: 4, Streams: 8, Users: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E3 verdict = %s", tab.Verdict)
	}
}

func TestE4HoldsOnReducedConfig(t *testing.T) {
	tab, err := E4PipelineRatio(E4Config{Ms: []int{1, 2}, MCs: []int{1}, Trials: 3, Streams: 8, Users: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E4 verdict = %s", tab.Verdict)
	}
}

func TestE5HoldsOnReducedConfig(t *testing.T) {
	tab, err := E5Tightness(E5Config{Grid: [][2]int{{2, 2}, {3, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E5 verdict = %s", tab.Verdict)
	}
}

func TestE6HoldsOnReducedConfig(t *testing.T) {
	tab, err := E6OnlineRatio(E6Config{Trials: 3, Streams: 8, Users: 3, M: 2, MC: 1, Orders: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E6 verdict = %s", tab.Verdict)
	}
}

func TestE8AndE9AndE10Run(t *testing.T) {
	if _, err := E8PartialEnum(E8Config{Trials: 3, Streams: 8, Users: 3, Seeds: []int{0, 1}, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	tab, err := E9VsThreshold(E9Config{Seeds: 3, Channels: 30, Gateways: 8, EgressFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E9 verdict = %s", tab.Verdict)
	}
	tab10, err := E10EndToEnd(E10Config{Channels: 25, Gateways: 6, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tab10.Verdict != "HOLDS" {
		t.Fatalf("E10 verdict = %s", tab10.Verdict)
	}
}

// TestE10DefaultTable pins E10's default utility and admitted columns
// (oracle, online, threshold), which must not depend on how the
// head-end is driven: one seeded pass over the catalog.
func TestE10DefaultTable(t *testing.T) {
	tab, err := E10EndToEnd(DefaultE10())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"offline-oracle", "156.8", "9", "40", "0"},
		{"online-allocate-guarded", "82.6", "6", "40", "0"},
		{"threshold", "75.2", "9", "40", "0"},
	}
	if tab.Verdict != "HOLDS" || !reflect.DeepEqual(tab.Rows, want) {
		t.Fatalf("E10 default table:\n%s", tab.Markdown())
	}
}

// TestE11HoldsOnReducedConfig runs the churn experiment end to end:
// every event stays feasible, and each departing row (two policies,
// plus online with gateway churn) admits more streams than its
// policy's no-departure control.
func TestE11HoldsOnReducedConfig(t *testing.T) {
	tab, err := E11Churn(E11Config{Channels: 20, Gateways: 6, Seed: 11, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E11 verdict = %s\n%s", tab.Verdict, tab.Markdown())
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("E11 has %d rows, want 5 (two policies with controls, plus gateway churn)", len(tab.Rows))
	}
}

func TestE12HoldsOnReducedConfig(t *testing.T) {
	tab, err := E12Cluster(E12Config{
		Tenants: 4, Channels: 12, Gateways: 4, Seed: 12,
		Rounds: 2, DepartEvery: 3, ChurnEvery: 5,
		ShardCounts: []int{1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E12 verdict = %s", tab.Verdict)
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatal("E12 table malformed")
	}
}

func TestE14HoldsOnDefaultConfig(t *testing.T) {
	tab, err := E14CrashRecovery(DefaultE14())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E14 verdict = %s", tab.Verdict)
	}
	// 3 shard counts x 2 cost models, every row verified and identical.
	if len(tab.Rows) != 6 || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("E14 table malformed: %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[4] != "true" || row[5] != "true" {
			t.Fatalf("E14 row not bit-identical: %v", row)
		}
	}
}

func TestE15HoldsOnDefaultConfig(t *testing.T) {
	cfg := DefaultE15()
	if testing.Short() {
		// The chaos smoke keeps one representative layout per drill.
		cfg.ShardCounts = []int{2, 4}
	}
	tab, err := E15ChaosDrills(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E15 verdict = %s", tab.Verdict)
	}
	// Disconnect runs shard counts x both models; fsync and flash-crowd
	// run once per shard count; the multi-node fleet cell runs once.
	want := len(cfg.ShardCounts)*len(e15Models) + 2*len(cfg.ShardCounts) + 1
	if len(tab.Rows) != want || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("E15 table malformed (%d rows, want %d): %v", len(tab.Rows), want, tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[6] != "true" || row[7] != "true" {
			t.Fatalf("E15 row failed: %v", row)
		}
	}
}

func TestE16HoldsOnDefaultConfig(t *testing.T) {
	cfg := DefaultE16()
	if testing.Short() {
		// The workload smoke keeps two shard counts so shard-count
		// invariance is still compared, not vacuous.
		cfg.ShardCounts = []int{1, 2}
	}
	tab, err := E16FlashCrowd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E16 verdict = %s", tab.Verdict)
	}
	want := len(cfg.ShardCounts) * len(e15Models)
	if len(tab.Rows) != want || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("E16 table malformed (%d rows, want %d): %v", len(tab.Rows), want, tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[6] != "true" || row[7] != "true" {
			t.Fatalf("E16 row failed: %v", row)
		}
	}
}

func TestE17HoldsOnDefaultConfig(t *testing.T) {
	cfg := DefaultE17()
	if testing.Short() {
		// Keep both regimes represented with fewer sweep points.
		cfg.Fractions = []float64{0.05, 0.45, 0.95}
		cfg.Orders = 2
	}
	tab, err := E17CompetitiveStress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E17 verdict = %s", tab.Verdict)
	}
	if len(tab.Rows) != len(cfg.Fractions) || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("E17 table malformed: %v", tab.Rows)
	}
	if tab.Figure == "" {
		t.Fatal("E17 degradation figure missing")
	}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		seen[row[1]] = true
	}
	if !seen["in"] || !seen["OUT"] {
		t.Fatalf("E17 sweep did not cross the regime boundary: %v", tab.Rows)
	}
}

func TestE13HoldsOnDefaultConfig(t *testing.T) {
	tab, err := E13SharedCatalog(DefaultE13())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Verdict != "HOLDS" {
		t.Fatalf("E13 verdict = %s", tab.Verdict)
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatal("E13 table malformed")
	}
	// The default config is chosen so the claim is not vacuous: at full
	// overlap the shared fleet strictly beats the isolated fleet and
	// saves strictly more origin cost than at half overlap.
	last, mid := tab.Rows[2], tab.Rows[1]
	if last[1] == last[2] {
		t.Fatalf("E13: shared utility did not strictly improve: %v", last)
	}
	if mid[3] == last[3] {
		t.Fatalf("E13: savings did not strictly grow with overlap: %v vs %v", mid, last)
	}
}

func TestAblationsRun(t *testing.T) {
	a1, err := A1LiftAblation(A1Config{Trials: 4, Streams: 8, Users: 3, M: 2, MC: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Verdict != "HOLDS" {
		t.Fatalf("A1 verdict = %s", a1.Verdict)
	}
	a2, err := A2BlockingFamily(A2Config{Gaps: []float64{10, 100}})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Verdict != "HOLDS" {
		t.Fatalf("A2 verdict = %s", a2.Verdict)
	}
	a3, err := A3MuSensitivity(A3Config{Streams: 15, Users: 4, M: 2, MC: 1, Seed: 13,
		Factors: []float64{0.5, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a3.Verdict != "HOLDS" {
		t.Fatalf("A3 verdict = %s", a3.Verdict)
	}
}

func TestMarkdownRendering(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "demo",
		Claim:   "claim text",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Verdict: "HOLDS",
		Notes:   "note",
	}
	md := tab.Markdown()
	for _, want := range []string{"### EX", "**Paper claim.** claim text", "| a | b |", "| 1 | 2 |", "HOLDS", "*note*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestE7Scaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := E7GreedyScaling(E7Config{
		Sizes: [][2]int{{40, 8}, {80, 16}}, Seed: 7, Repeats: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatal("E7 rows missing")
	}
}

// TestRunOneExperiment pins the index's lookup by ID: one ID, in any
// case, runs exactly that experiment with its default parameters, and
// an unknown ID errors naming it.
func TestRunOneExperiment(t *testing.T) {
	got, err := Run("a2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := A2BlockingFamily(DefaultA2())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "A2" || got.Markdown() != want.Markdown() {
		t.Fatalf("Run(%q) returned %s:\n%s\nwant:\n%s", "a2", got.ID, got.Markdown(), want.Markdown())
	}
	if _, err := Run("E99"); err == nil || !strings.Contains(err.Error(), `"E99"`) {
		t.Fatalf("Run(%q): err %v, want an error naming it", "E99", err)
	}
}
