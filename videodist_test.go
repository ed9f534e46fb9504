package videodist_test

import (
	"context"
	"errors"
	"testing"

	videodist "repro"
)

func TestFacadeSolve(t *testing.T) {
	in, err := videodist.NewCableTV(videodist.CableTV{Channels: 25, Gateways: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	assn, report, err := videodist.Solve(in, videodist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := assn.CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
	if report.Value <= 0 {
		t.Fatal("zero utility on a dense cable-TV instance")
	}
	if ub := videodist.UpperBound(in); report.Value > ub+1e-9 {
		t.Fatalf("value %v exceeds upper bound %v", report.Value, ub)
	}
}

func TestFacadeOnline(t *testing.T) {
	in, err := videodist.SmallStreams{
		Base: videodist.RandomMMD{Streams: 25, Users: 6, M: 2, MC: 1, Seed: 2, Skew: 2},
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	assn, norm, err := videodist.SolveOnline(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := assn.CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
	if norm.CompetitiveBound() <= 1 {
		t.Fatal("degenerate competitive bound")
	}
	if err := videodist.CheckSmallStreams(norm.Instance, norm.Mu()); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeAdmissionPolicy covers the public policy factory: every
// documented kind builds a usable policy, unknown kinds and nil
// instances fail.
func TestFacadeAdmissionPolicy(t *testing.T) {
	in, err := videodist.NewCableTV(videodist.CableTV{Channels: 12, Gateways: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"", "online", "online-unguarded", "threshold", "oracle", "static"} {
		pol, err := videodist.NewAdmissionPolicy(in, kind)
		if err != nil {
			t.Fatalf("NewAdmissionPolicy(%q): %v", kind, err)
		}
		if pol.Name() == "" {
			t.Fatalf("NewAdmissionPolicy(%q): empty name", kind)
		}
	}
	if _, err := videodist.NewAdmissionPolicy(in, "nope"); err == nil {
		t.Fatal("unknown policy kind accepted")
	}
	if _, err := videodist.NewAdmissionPolicy(nil, "online"); err == nil {
		t.Fatal("nil instance accepted")
	}
}

// TestFacadeClusterSession exercises the re-exported serving API v2
// surface: session methods, typed results, sentinel errors, and the
// fail-fast backpressure mode through the public package alone.
func TestFacadeClusterSession(t *testing.T) {
	ctx := context.Background()
	in, err := videodist.NewCableTV(videodist.CableTV{Channels: 10, Gateways: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	c, err := videodist.NewCluster(
		[]videodist.ClusterTenant{{Instance: in}},
		videodist.ClusterOptions{Shards: 1, Backpressure: videodist.BackpressureReject},
	)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for s := 0; s < in.NumStreams(); s++ {
		res, err := c.OfferStream(ctx, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if _, err := c.OfferStream(ctx, 7, 0); !errors.Is(err, videodist.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	res, err := c.Resolve(ctx, 0, videodist.ResolveOptions{Install: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OfflineValue <= 0 {
		t.Fatalf("resolve = %+v", res)
	}
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !fs.AllFeasible || fs.Utility <= 0 {
		t.Fatalf("fleet snapshot = %+v", fs)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UserJoin(ctx, 0, 0); !errors.Is(err, videodist.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestFacadeExactAndBaseline(t *testing.T) {
	in, err := videodist.NewRandomSMD(videodist.RandomSMD{Streams: 9, Users: 4, Seed: 3, Skew: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := videodist.SolveExact(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	assn, report, err := videodist.Solve(in, videodist.Options{Algorithm: videodist.AlgoPartialEnum})
	if err != nil {
		t.Fatal(err)
	}
	if report.Value > opt+1e-9 {
		t.Fatalf("approximate value %v exceeds OPT %v", report.Value, opt)
	}
	if err := assn.CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
	thr, err := videodist.Threshold(in, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := thr.CheckFeasible(in); err != nil {
		t.Fatal(err)
	}
	alpha, err := videodist.LocalSkew(in)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 1 {
		t.Fatalf("alpha = %v", alpha)
	}
}

func TestFacadeAssignmentAndNormalize(t *testing.T) {
	a := videodist.NewAssignment(3)
	a.Add(0, 5)
	if !a.Has(0, 5) || a.NumUsers() != 3 {
		t.Fatal("facade NewAssignment broken")
	}
	in, err := videodist.NewRandomMMD(videodist.RandomMMD{Streams: 6, Users: 3, M: 2, MC: 1, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := videodist.Normalize(in)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Gamma < 1 || norm.Mu() <= 2 {
		t.Fatalf("normalization degenerate: gamma %v mu %v", norm.Gamma, norm.Mu())
	}
	al, err := videodist.NewAllocator(norm.Instance, norm.Mu())
	if err != nil {
		t.Fatal(err)
	}
	al.RunSequence(nil)
	if al.Value() < 0 {
		t.Fatal("negative value")
	}
}
