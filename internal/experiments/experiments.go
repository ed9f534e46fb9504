// Package experiments regenerates, as tables, every measurable claim of
// Patt-Shamir & Rawitz (the paper is theoretical — Figs. 1-3 are
// schematic and there is no empirical section, so the reproduction
// targets are the theorems themselves plus the motivating comparison
// against threshold admission). cmd/mmdbench prints the tables as
// Markdown; bench_test.go wraps the same runs as testing.B
// benchmarks.
//
// Experiment index:
//
//	E1  Theorem 2.8 / Lemma 2.6: greedy approximation ratios vs exact OPT
//	E2  Theorem 2.5: greedy vs optimum with reduced budget
//	E3  Theorem 3.1: classify-and-select across skew alpha
//	E4  Theorem 4.4: full pipeline across (m, mc)
//	E5  Section 4.2: tightness of the reduction (loss ~ m*mc)
//	E6  Theorem 5.4 / Lemma 5.1: online competitiveness and feasibility
//	E7  Section 2.1: O(n^2) greedy running time scaling
//	E8  Section 2.3: partial enumeration quality/time trade-off
//	E9  Section 1: utility-aware solver vs threshold admission
//	E10 end-to-end: one head-end on a one-shard cluster, feasible after every event
//	E11 footnote 1: finite-duration streams and gateway churn reuse freed capacity
//	E12 fleet scale: sharded multi-tenant cluster, shard-count invariance
//	E13 fleet catalog: shared-origin pricing vs isolated tenants
//	E14 durability: crash recovery from the per-shard WAL, layout-free
//	E15 chaos: seeded fault drills — disconnects, fsync faults, flash crowds
//	E16 workload: Zipf flash crowd + diurnal churn through the serving stack
//	E17 adversarial: competitive ratio vs stream size, in/out of regime
//	A1  ablation: paper-faithful lift vs greedy-merging lift
//	A2  ablation: raw greedy vs fixed greedy on the blocking family
//	A3  ablation: online allocator sensitivity to mu
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	// ID is the experiment identifier (E1..E17, A1..A3).
	ID string
	// Title is a one-line description.
	Title string
	// Claim states the paper claim being reproduced.
	Claim string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows, already formatted.
	Rows [][]string
	// Verdict summarizes bound-vs-measured ("HOLDS", "VIOLATED", ...).
	Verdict string
	// Notes carries caveats (substitutions, measurement details).
	Notes string
	// Figure is an optional pre-rendered text figure (fenced block).
	Figure string
}

// Markdown renders the table as a Markdown section.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "**Paper claim.** %s\n\n", t.Claim)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	fmt.Fprintf(&sb, "\n**Verdict:** %s\n", t.Verdict)
	if t.Notes != "" {
		fmt.Fprintf(&sb, "\n*%s*\n", t.Notes)
	}
	if t.Figure != "" {
		sb.WriteString("\n" + t.Figure)
	}
	return sb.String()
}

// f formats a float compactly.
func f(x float64) string { return fmt.Sprintf("%.3f", x) }

// f1 formats a float with one decimal.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// d formats an int.
func d(x int) string { return fmt.Sprintf("%d", x) }

// verdict returns HOLDS when ok, VIOLATED otherwise.
func verdict(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED"
}

// index lists every experiment with its default parameters, in index
// order.
var index = []struct {
	id  string
	run func() (*Table, error)
}{
	{"E1", func() (*Table, error) { return E1GreedyRatio(DefaultE1()) }},
	{"E2", func() (*Table, error) { return E2ReducedBudget(DefaultE2()) }},
	{"E3", func() (*Table, error) { return E3SkewSweep(DefaultE3()) }},
	{"E4", func() (*Table, error) { return E4PipelineRatio(DefaultE4()) }},
	{"E5", func() (*Table, error) { return E5Tightness(DefaultE5()) }},
	{"E6", func() (*Table, error) { return E6OnlineRatio(DefaultE6()) }},
	{"E7", func() (*Table, error) { return E7GreedyScaling(DefaultE7()) }},
	{"E8", func() (*Table, error) { return E8PartialEnum(DefaultE8()) }},
	{"E9", func() (*Table, error) { return E9VsThreshold(DefaultE9()) }},
	{"E10", func() (*Table, error) { return E10EndToEnd(DefaultE10()) }},
	{"E11", func() (*Table, error) { return E11Churn(DefaultE11()) }},
	{"E12", func() (*Table, error) { return E12Cluster(DefaultE12()) }},
	{"E13", func() (*Table, error) { return E13SharedCatalog(DefaultE13()) }},
	{"E14", func() (*Table, error) { return E14CrashRecovery(DefaultE14()) }},
	{"E15", func() (*Table, error) { return E15ChaosDrills(DefaultE15()) }},
	{"E16", func() (*Table, error) { return E16FlashCrowd(DefaultE16()) }},
	{"E17", func() (*Table, error) { return E17CompetitiveStress(DefaultE17()) }},
	{"A1", func() (*Table, error) { return A1LiftAblation(DefaultA1()) }},
	{"A2", func() (*Table, error) { return A2BlockingFamily(DefaultA2()) }},
	{"A3", func() (*Table, error) { return A3MuSensitivity(DefaultA3()) }},
}

// All runs every experiment with default parameters and returns the
// tables in index order. Failures abort with the experiment's error.
func All() ([]*Table, error) {
	out := make([]*Table, 0, len(index))
	for _, e := range index {
		t, err := Run(e.id)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Run runs the one experiment named id (E1..E17, A1..A3, in any case)
// with default parameters.
func Run(id string) (*Table, error) {
	for _, e := range index {
		if strings.EqualFold(e.id, id) {
			t, err := e.run()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", e.id, err)
			}
			return t, nil
		}
	}
	return nil, fmt.Errorf("experiments: no experiment named %q", id)
}
