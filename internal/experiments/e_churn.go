package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/generator"
)

// E11Config parameterizes E11.
type E11Config struct {
	// Channels/Gateways/Seed shape the workload.
	Channels, Gateways int
	Seed               int64
	// Rounds replays the catalog this many times so freed capacity is
	// actually contested.
	Rounds int
}

// DefaultE11 returns the parameters behind mmdbench's E11 table.
func DefaultE11() E11Config { return E11Config{Channels: 35, Gateways: 9, Seed: 115, Rounds: 3} }

// E11 schedule shape (see cluster.Workload): after every e11DepartEvery
// arrivals the oldest offer departs, and on the gateway-churn row a
// gateway leaves or rejoins after every e11ChurnEvery arrivals.
const (
	e11DepartEvery = 2
	e11ChurnEvery  = 4
)

// E11Churn exercises the paper's footnote-1 dynamic extension: streams
// of finite duration depart and free resources for later arrivals.
// Each policy replays the catalog on a one-shard cluster twice, with
// departures and without (its control run, on the same arrival order);
// a third online run adds gateway churn. The verdict checks that every
// budget and capacity holds after every event, that streams depart,
// that gateways churn on the gateway-churn row, and that every
// departing row admits more streams than its policy's control —
// released resources are reused.
func E11Churn(cfg E11Config) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Dynamic streams (footnote 1): churn with departures",
		Claim: "Footnote 1: Allocate extends to streams of finite duration; released " +
			"resources are reused and budgets stay satisfied throughout",
		Columns: []string{"policy", "utility-events", "peak utility", "admissions",
			"departures", "infeasible events"},
	}
	in, err := generator.CableTV{
		Channels: cfg.Channels, Gateways: cfg.Gateways, Seed: cfg.Seed,
		EgressFraction: 0.25,
	}.Generate()
	if err != nil {
		return nil, err
	}
	departing := cluster.Workload{Seed: cfg.Seed, Rounds: cfg.Rounds, DepartEvery: e11DepartEvery}
	control := departing
	control.DepartEvery = 0
	gateways := departing
	gateways.ChurnEvery = e11ChurnEvery

	// A policy's control run comes before its departing runs, which
	// the verdict compares against it.
	runs := []struct {
		policy, suffix string
		w              cluster.Workload
	}{
		{"online", " (no departures)", control},
		{"online", "", departing},
		{"threshold", " (no departures)", control},
		{"threshold", "", departing},
		{"online", "+gateway-churn", gateways},
	}
	ok := true
	controlAdmitted := make(map[string]int)
	for _, r := range runs {
		run, err := runOneTenant(in, r.policy, r.w)
		if err != nil {
			return nil, err
		}
		ten := run.final.Tenants[0]
		if run.infeasible != 0 || (r.w.ChurnEvery > 0 && ten.UserLeaves == 0) {
			ok = false
		}
		if r.w.DepartEvery == 0 {
			controlAdmitted[r.policy] = ten.StreamsAdmitted
		} else if ten.StreamsDeparted == 0 || ten.StreamsAdmitted <= controlAdmitted[r.policy] {
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			ten.Policy + r.suffix, f1(run.utilityEvents), f1(run.peak),
			d(ten.StreamsAdmitted), d(ten.StreamsDeparted), d(run.infeasible),
		})
	}
	t.Verdict = verdict(ok)
	t.Notes = fmt.Sprintf("One tenant on a one-shard cluster, %d catalog rounds (cluster.Workload); "+
		"the oldest offer departs after every %d arrivals, and on the gateway-churn row a "+
		"gateway leaves or rejoins after every %d. utility-events sums the live utility read "+
		"after each event. HOLDS means no infeasible event, departures on every departing row, "+
		"gateway churn on its row, and more admissions on every departing row than its "+
		"policy's no-departure control. Competitive bounds do not formally carry over to "+
		"departures (the footnote sketches the mechanism, not a theorem).",
		cfg.Rounds, e11DepartEvery, e11ChurnEvery)
	return t, nil
}
