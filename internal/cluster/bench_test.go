package cluster

import "testing"

// BenchmarkNewCluster times building and closing a fleet of 8
// churn-resolve head-ends (120 channels, 40 gateways each) with the
// default policy and shard count: every tenant's online policy is
// normalized, validated and built, and the shard workers start and
// stop.
func BenchmarkNewCluster(b *testing.B) {
	tenants := tenantInstances(b, 8, 120, 40, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := New(tenants, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
