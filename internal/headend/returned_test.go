package headend_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
)

// TestReturnedListsNeverWritten pins the contract behind the tenant's
// in-place list edits: a list that OfferStream, DepartStream or
// UserLeave returned is capped at its length and never written again.
// It keeps every returned list beside a copy, and after every later
// step compares each with its copy and runs the tenant's own storage
// check (CheckListStorage). The steps are a seeded mix of offers,
// departures, leaves (some repeated at once), joins, and installing and
// monitoring re-solves, under the online and threshold policies.
func TestReturnedListsNeverWritten(t *testing.T) {
	in, err := generator.CableTV{Channels: 60, Gateways: 20, Seed: 503, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	steps := 20000
	if raceEnabled {
		steps = 2000
	}
	for _, policy := range []string{"online", "threshold"} {
		t.Run(policy, func(t *testing.T) {
			tn := newTenant(t, in, policy)
			rng := rand.New(rand.NewSource(61))
			type returned struct {
				list, want []int
				step       int
				call       string
			}
			var held []returned
			memory := make(map[*int]bool)
			longest := make([]int, in.NumStreams())
			keep := func(list []int, step int, call string) {
				if cap(list) != len(list) {
					t.Fatalf("step %d: %s returned a list of length %d and capacity %d", step, call, len(list), cap(list))
				}
				if len(list) > 0 {
					held = append(held, returned{list, slices.Clone(list), step, call})
				}
				for i := range list {
					memory[&list[i]] = true
				}
			}
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 40:
					keep(tn.OfferStream(rng.Intn(in.NumStreams())), step, "OfferStream")
				case r < 65:
					keep(tn.DepartStream(rng.Intn(in.NumStreams())), step, "DepartStream")
				case r < 80:
					u := rng.Intn(in.NumUsers())
					keep(tn.UserLeave(u), step, "UserLeave")
					if rng.Intn(4) == 0 {
						keep(tn.UserLeave(u), step, "UserLeave")
					}
				case r < 92:
					tn.UserJoin(rng.Intn(in.NumUsers()))
				default:
					if _, err := tn.Resolve(core.Options{}, rng.Intn(2) == 0); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				for _, h := range held {
					if !slices.Equal(h.list, h.want) {
						t.Fatalf("step %d: the list %s returned at step %d reads %v, was %v",
							step, h.call, h.step, h.list, h.want)
					}
				}
				if err := tn.CheckListStorage(memory, longest); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if snap := tn.Snapshot(); snap.Installs == 0 || snap.UserLeaves == 0 || !snap.Feasible {
				t.Fatalf("schedule too thin or infeasible: %+v", snap)
			}
		})
	}
}
