package headend

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/generator"
)

// TestOnlineChurnValueAccounting pins the allocator's value under the
// online policy's gateway churn: after every offer, departure, leave
// and join, Allocator.Value equals the utility of the allocator's
// assignment. A leave that zeroed the gateway's utility row before
// releasing it left the gateway's utility in the value.
func TestOnlineChurnValueAccounting(t *testing.T) {
	in, err := generator.CableTV{Channels: 40, Gateways: 10, Seed: 200, EgressFraction: 0.25}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewOnlinePolicy(in, true)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		want := p.allocator.Assignment().Utility(p.norm.Instance)
		if got := p.allocator.Value(); math.Abs(got-want) > 1e-6 {
			t.Fatalf("%s: Value() = %v, assignment utility = %v", step, got, want)
		}
	}
	for s := 0; s < in.NumStreams(); s++ {
		p.OnStreamArrival(s)
	}
	if p.allocator.Assignment().UserCount(3) == 0 {
		t.Fatal("gateway 3 holds nothing; the leave would not test the release")
	}
	p.OnUserLeave(3)
	check("gateway 3 leaves")
	rng := rand.New(rand.NewSource(201))
	for step := 0; step < 300; step++ {
		switch u, s := rng.Intn(in.NumUsers()), rng.Intn(in.NumStreams()); rng.Intn(4) {
		case 0:
			p.OnStreamArrival(s)
		case 1:
			p.OnStreamDeparture(s)
		case 2:
			p.OnUserLeave(u)
		case 3:
			p.OnUserJoin(u)
		}
		check(fmt.Sprintf("step %d", step))
	}
}
