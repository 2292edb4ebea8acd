package main

import (
	"pfd/internal/datagen"
	"pfd/internal/relation"
)

// This file is the only place the workload seed enters: it becomes the
// generator seeds of the clean reference and of the dirty stream, and
// nothing else. Every other choice a run makes (sizes, request mix,
// tenants, timings) is fixed per workload, so two seeds differ in their
// data alone.

// dataSeeds derives the two generator seeds from the workload seed:
// rulesets are mined from a clean reference drawn with one, dirty
// streams are drawn with the other. Distinct seeds never collide.
func dataSeeds(seed int64) (ref, stream int64) { return 2 * seed, 2*seed + 1 }

// tableSpec names a generated table: a datagen evaluation table, its
// row count and its dirt rate.
type tableSpec struct {
	id   string
	rows int
	dirt float64
}

// build draws the table from datagen with the given generator seed.
func (ts tableSpec) build(genSeed int64) *relation.Table {
	spec, ok := datagen.SpecByID(ts.id)
	if !ok {
		panic("unknown datagen table " + ts.id) // workload specs are constants
	}
	t, _ := spec.Build(ts.rows, genSeed, ts.dirt)
	return t
}

// ingestData draws an ingest workload's clean reference and dirty
// stream.
func ingestData(w *ingestSpec, seed int64) (ref, stream *relation.Table) {
	refSeed, streamSeed := dataSeeds(seed)
	return w.ref.build(refSeed), w.stream.build(streamSeed)
}

// batchData draws the batch workload's 15 dirty tables, T1–T15 at
// batchScale of the paper's Table 7 row counts.
func batchData(seed int64) []*relation.Table {
	_, streamSeed := dataSeeds(seed)
	var out []*relation.Table
	for _, ts := range batchTables() {
		out = append(out, ts.build(streamSeed))
	}
	return out
}

// batchTables lists the batch workload's table specs.
func batchTables() []tableSpec {
	var out []tableSpec
	for _, spec := range datagen.Specs() {
		rows := int(float64(spec.PaperRows) * batchScale)
		if rows < 100 {
			rows = 100
		}
		out = append(out, tableSpec{id: spec.ID, rows: rows, dirt: batchDirt})
	}
	return out
}
