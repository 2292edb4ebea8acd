package discovery

import (
	"testing"

	"pfd/internal/datagen"
)

// BenchmarkDiscoverT13 times the heaviest Table 7 workload (the
// 105,748-row UDW transcript table at pfdbench's 0.1 scale): near-unique
// id columns make it the stress test for dictionary-driven index
// construction. The CI bench-gate job watches it.
func BenchmarkDiscoverT13(b *testing.B) {
	spec, _ := datagen.SpecByID("T13")
	t, _ := spec.Build(10574, 1, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Discover(t, DefaultParams())
	}
}
