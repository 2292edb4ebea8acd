package repair

import (
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// findingsSink keeps the benchmarked calls' results live.
var findingsSink []Finding

// BenchmarkDetectSingleRule times single-rule detection: one op detects
// every rule mined from the batch pipeline's tables, each alone. The
// tables are drawn the way the end-to-end benchmark draws them — T1–T15
// at 0.1 of Table 7's rows (at least 100), 1% dirt, generator seed 3 —
// and each is mined from itself with the default parameters.
func BenchmarkDetectSingleRule(b *testing.B) {
	type minedRule struct {
		t    *relation.Table
		pfds []*pfd.PFD
	}
	var rules []minedRule
	for _, spec := range datagen.Specs() {
		t, _ := spec.Build(max(spec.PaperRows/10, 100), 3, 0.01)
		for _, dep := range discovery.Discover(t.Clone(), discovery.DefaultParams()).Dependencies {
			rules = append(rules, minedRule{t: t, pfds: []*pfd.PFD{dep.PFD}})
		}
	}
	if len(rules) == 0 {
		b.Fatal("mining found no rules")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rules {
			findingsSink = Detect(r.t, r.pfds)
		}
	}
	b.ReportMetric(float64(len(rules)), "rules")
}
