package index

import (
	"runtime"
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
		if bt := usableColumns(t); len(bt.cols) >= 2 {
			out = append(out, bt)
		}
	}
	return out
}

// usableColumns profiles t and keeps the columns discovery would index.
func usableColumns(t *relation.Table) batchColumns {
	profs := relation.ProfileTable(t)
	var cols []string
	for _, p := range profs {
		if !p.Quantitative && p.Distinct >= 2 {
			cols = append(cols, p.Name)
		}
	}
	return batchColumns{t: t, profs: profs, cols: cols}
}

// BenchmarkIndexBuildBatch builds, per op, the index of every usable
// column with discovery's default options (MinIDs 5, pruning on): the
// build discovery runs before its lattice. "batch" is the 15 batch
// tables; "T13-scale1" is T13 at the paper's full 105,748 rows (seed 1,
// 1% dirt, as `datagen -scale 1.0 -table T13` writes it), where an index
// that grew with keys × rows would show. Both report retained-B: the
// heap the last op's indexes hold, live after a GC.
func BenchmarkIndexBuildBatch(b *testing.B) {
	b.Run("batch", func(b *testing.B) { benchBuild(b, batchTables()) })
	b.Run("T13-scale1", func(b *testing.B) {
		spec, _ := datagen.SpecByID("T13")
		t, _ := spec.Build(spec.PaperRows, 1, 0.01)
		benchBuild(b, []batchColumns{usableColumns(t)})
	})
}

func benchBuild(b *testing.B, tables []batchColumns) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := int64(ms.HeapAlloc)
	invs := make([]*Inverted, len(tables))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, bt := range tables {
			invs[j] = Build(bt.t, bt.profs, bt.cols, Options{MinIDs: 5})
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(invs)
	b.ReportMetric(float64(int64(ms.HeapAlloc)-base), "retained-B")
}
