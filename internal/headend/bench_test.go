package headend_test

import (
	"runtime"
	"testing"

	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/mmd"
)

// admissionInstance is the CableTV-sized workload the admission
// benchmarks sweep: 120 channels × 40 gateways, 3 server budgets, 2
// capacities per gateway, Zipf popularity, contended egress.
func admissionInstance(b *testing.B) *mmd.Instance {
	b.Helper()
	in, err := generator.CableTV{
		Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25,
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkGuardedAdmission compares the two guard implementations on
// admissionInstance: "rescan" is the retained pre-ledger reference —
// trial Add + full CheckFeasible per candidate — and "ledger" is the
// O(measures) LoadLedger delta query. Each op offers every (stream,
// candidate) pair with positive utility, then departs everything it
// admitted, so it is one admit/depart cycle on warm state and the
// reported allocs are the guard's own. Both sweeps admit
// bit-identically (differential tests); the ratio is the serving-path
// win.
func BenchmarkGuardedAdmission(b *testing.B) {
	b.Run("rescan", guardedAdmissionRescan)
	b.Run("ledger", guardedAdmissionLedger)
}

func guardedAdmissionRescan(b *testing.B) {
	in := admissionInstance(b)
	cand := in.InterestedUsers()
	assn := mmd.NewAssignment(in.NumUsers())
	var admitted [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admitted = admitted[:0]
		for s := range cand {
			for _, u := range cand[s] {
				assn.Add(u, s)
				if assn.CheckFeasible(in) != nil {
					assn.Remove(u, s)
					continue
				}
				admitted = append(admitted, [2]int{u, s})
			}
		}
		if len(admitted) == 0 {
			b.Fatal("nothing admitted")
		}
		for _, p := range admitted {
			assn.Remove(p[0], p[1])
		}
	}
}

func guardedAdmissionLedger(b *testing.B) {
	in := admissionInstance(b)
	cand := in.InterestedUsers()
	assn := mmd.NewAssignment(in.NumUsers())
	ledger := mmd.NewLoadLedger(in)
	var admitted [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admitted = admitted[:0]
		for s := range cand {
			for _, u := range cand[s] {
				if !ledger.FitsDelta(u, s) {
					continue
				}
				ledger.Add(u, s)
				assn.Add(u, s)
				admitted = append(admitted, [2]int{u, s})
			}
		}
		if len(admitted) == 0 {
			b.Fatal("nothing admitted")
		}
		for _, p := range admitted {
			ledger.Remove(p[0], p[1])
			assn.Remove(p[0], p[1])
		}
	}
}

// BenchmarkCatalogAdmission sweeps the admission fast path the fleet
// catalog prices discounted admissions with: the scaled guard
// (FitsDeltaScaled/AddScaled) over GuardedAdmission's admit/depart
// cycle. isolated is scale 1 (bit-identical decisions to the unscaled
// ledger guard), shared the SharedOrigin replication fraction, which
// admits more pairs per sweep on the contended instance. Both
// sub-benchmarks must report 0 allocs/op: the discount adds one float
// multiply to the delta query, never an allocation, and the catalog's
// registry round trip happens once per fleet admission, outside this
// path.
func BenchmarkCatalogAdmission(b *testing.B) {
	b.Run("isolated", func(b *testing.B) { catalogAdmission(b, 1) })
	b.Run("shared", func(b *testing.B) { catalogAdmission(b, 0.25) })
}

func catalogAdmission(b *testing.B, scale float64) {
	in := admissionInstance(b)
	cand := in.InterestedUsers()
	assn := mmd.NewAssignment(in.NumUsers())
	ledger := mmd.NewLoadLedger(in)
	var admitted [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admitted = admitted[:0]
		for s := range cand {
			for _, u := range cand[s] {
				if !ledger.FitsDeltaScaled(u, s, scale) {
					continue
				}
				ledger.AddScaled(u, s, scale)
				assn.Add(u, s)
				admitted = append(admitted, [2]int{u, s})
			}
		}
		if len(admitted) == 0 {
			b.Fatal("nothing admitted")
		}
		for _, p := range admitted {
			ledger.Remove(p[0], p[1])
			assn.Remove(p[0], p[1])
		}
	}
}

// BenchmarkOnlinePolicySweep is the end-to-end variant: the full
// guarded online policy (Section 5 allocator + guard) offered the whole
// catalog, with only the guard implementation differing. The two runs
// admit bit-identically (differential tests), so the delta is pure
// guard cost.
func BenchmarkOnlinePolicySweep(b *testing.B) {
	b.Run("rescan", func(b *testing.B) { onlinePolicySweep(b, false) })
	b.Run("ledger", func(b *testing.B) { onlinePolicySweep(b, true) })
}

func onlinePolicySweep(b *testing.B, ledger bool) {
	in := admissionInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var pol *headend.OnlinePolicy
		var err error
		if ledger {
			pol, err = headend.NewOnlinePolicy(in, true)
		} else {
			pol, err = headend.NewRescanOnlinePolicy(in)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for s := 0; s < in.NumStreams(); s++ {
			pol.OnStreamArrival(s)
		}
	}
}

// BenchmarkNewTenant times building one online tenant on
// admissionInstance, as a cluster builds each of its tenants: the
// guarded online policy by name (normalization, validation, the
// allocator and the ledger), then the tenant.
func BenchmarkNewTenant(b *testing.B) {
	in := admissionInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol, err := headend.NewPolicyByName(in, "online")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := headend.NewTenant(in, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstResolve times a fresh tenant's first installing
// re-solve on the churn-resolve head-end with three gateways away,
// which builds the tenant's solver workspace; building and preparing
// the tenant is not timed.
func BenchmarkFirstResolve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resolve := resolveTenant(b)
		b.StartTimer()
		resolve()
	}
}

// BenchmarkTenantResolve times one warm installing re-solve of the
// churn-resolve head-end with three gateways away: the offline
// Theorem 1.1 pipeline and the install, on the caller's goroutine.
func BenchmarkTenantResolve(b *testing.B) {
	resolve := warmResolveTenant(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolve()
	}
}

// BenchmarkTenantResolveChurn times one warm cycle of churn-resolve's
// shape on its head-end: a gateway leaves and rejoins, a stream departs
// and is offered again, and an installing re-solve follows, writing
// the lists it changed into the tenant's own storage. A cycle
// allocates far less than once, and the framework truncates allocs/op
// to a whole number, so mallocs/op reports the fraction.
func BenchmarkTenantResolveChurn(b *testing.B) {
	churn, resolve := warmChurnTenant(b)
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
		resolve()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "mallocs/op")
}
