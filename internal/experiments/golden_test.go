package experiments

import (
	"os"
	"testing"
)

// TestE11E12Golden requires the Markdown of DefaultE11's and
// DefaultE12's tables to match testdata byte for byte. Both serve the
// guarded online policy through a one-shard (E11) or sharded (E12)
// cluster under departures and gateway churn, and E12 then installs an
// offline re-solve on every tenant, so a change to normalization, the
// allocator, the ledger or an install that moves any admission shows
// here. Regenerate the files only for a change meant to move a result.
func TestE11E12Golden(t *testing.T) {
	for _, tc := range []struct {
		file string
		run  func() (*Table, error)
	}{
		{"testdata/e11.md", func() (*Table, error) { return E11Churn(DefaultE11()) }},
		{"testdata/e12.md", func() (*Table, error) { return E12Cluster(DefaultE12()) }},
	} {
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Markdown(); got != string(want) {
			t.Errorf("%s differs:\n%s", tc.file, got)
		}
	}
}
