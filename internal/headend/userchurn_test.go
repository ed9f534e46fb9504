package headend_test

import (
	"testing"

	"repro/internal/headend"
)

// TestUserChurnIdempotentCallbacks: double leave/join notifications must
// not corrupt policy state.
func TestUserChurnIdempotentCallbacks(t *testing.T) {
	in, err := cableInstance(t, 57).Generate()
	if err != nil {
		t.Fatal(err)
	}
	onl, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		t.Fatal(err)
	}
	onl.OnStreamArrival(0)
	onl.OnUserLeave(0)
	onl.OnUserLeave(0) // double leave
	onl.OnUserJoin(0)
	onl.OnUserJoin(0) // double join
	users := onl.OnStreamArrival(1)
	_ = users
	if err := onl.Assignment().CheckFeasible(in); err != nil {
		t.Fatal(err)
	}

	thr, err := headend.NewThresholdPolicy(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	thr.OnStreamArrival(0)
	thr.OnUserLeave(2)
	thr.OnUserLeave(2)
	thr.OnUserJoin(2)
	thr.OnUserJoin(2)
	thr.OnStreamArrival(1)
	if err := thr.Assignment().CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
}

// TestAwayUserReceivesNothing: while a gateway is away the online policy
// must not assign to it.
func TestAwayUserReceivesNothing(t *testing.T) {
	in, err := cableInstance(t, 58).Generate()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := headend.NewOnlinePolicy(in, true)
	if err != nil {
		t.Fatal(err)
	}
	pol.OnUserLeave(0)
	for s := 0; s < in.NumStreams(); s++ {
		for _, u := range pol.OnStreamArrival(s) {
			if u == 0 {
				t.Fatalf("away gateway 0 was assigned stream %d", s)
			}
		}
	}
	pol.OnUserJoin(0)
	assigned := false
	for s := 0; s < in.NumStreams(); s++ {
		for _, u := range pol.OnStreamArrival(s) {
			if u == 0 {
				assigned = true
			}
		}
	}
	_ = assigned // rejoining restores eligibility; assignment depends on load
}
