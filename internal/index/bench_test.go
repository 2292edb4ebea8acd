package index

import (
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/relation"
)

// batchColumns is one table of the batch workload with the columns
// discovery would index: those that are neither quantitative nor
// constant, on tables with at least two of them.
type batchColumns struct {
	t     *relation.Table
	profs []relation.ColumnProfile
	cols  []string
}

// batchTables draws T1–T15 at 0.1 of the paper's Table 7 rows with 1%
// dirt and generator seed 3 — the tables of perfbench's batch-paper
// workload at its seed 1 — and keeps each one's usable columns.
func batchTables() []batchColumns {
	var out []batchColumns
	for _, spec := range datagen.Specs() {
		t, _ := spec.Build(max(spec.PaperRows/10, 100), 3, 0.01)
		profs := relation.ProfileTable(t)
		var cols []string
		for _, p := range profs {
			if !p.Quantitative && p.Distinct >= 2 {
				cols = append(cols, p.Name)
			}
		}
		if len(cols) >= 2 {
			out = append(out, batchColumns{t: t, profs: profs, cols: cols})
		}
	}
	return out
}

var invSink *Inverted

// BenchmarkIndexBuildBatch builds, per op, the index of every usable
// column of the 15 batch tables with discovery's default options
// (MinIDs 5, pruning on): the build discovery runs before its lattice.
func BenchmarkIndexBuildBatch(b *testing.B) {
	tables := batchTables()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bt := range tables {
			invSink = Build(bt.t, bt.profs, bt.cols, Options{MinIDs: 5})
		}
	}
}
