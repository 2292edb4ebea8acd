package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"pfd/internal/benchfmt"
	"pfd/internal/benchutil"
	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/ooc"
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/plan"
	"pfd/internal/relation"
	"pfd/internal/repair"
	"pfd/internal/source"
)

// The bench experiment writes a machine-readable performance snapshot
// (default BENCH_PR9.json, schema in internal/benchfmt) so successive
// PRs carry a perf trajectory: micro timings of the compiled-matcher
// hot paths, streaming-engine throughput from 1/4/8 producers, and macro
// timings of discovery/detection per dataset with the headline quality
// metrics. cmd/benchdiff compares two snapshots and gates CI on
// regressions in the watched hot paths. microOnly trims the
// per-dataset discovery block to T13 (the gated workload) for the CI
// gate.

// measure times fn, growing the iteration count until the run lasts at
// least minDur (one warm-up call excluded). Alongside ns/op it records
// allocs/op — the runtime Mallocs delta across the timed loop — so the
// benchdiff gate can catch allocation regressions on the hot paths,
// not just wall-clock ones.
func measure(name string, minDur time.Duration, fn func()) benchfmt.Result {
	fn() // warm-up: compile matchers, fill scratch pools
	iters := 1
	var ms runtime.MemStats
	for {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		if elapsed >= minDur || iters > 1<<24 {
			r := benchfmt.Result{
				Name:    name,
				Iters:   iters,
				NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters),
			}
			r.SetAllocsPerOp(float64(ms.Mallocs-mallocs) / float64(iters))
			return r
		}
		iters *= 4
	}
}

func runBench(scale float64, seed int64, dirt float64, out string, microOnly bool) error {
	rep := &benchfmt.Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Scale:       scale,
	}

	// Micro: the pattern-matching substrate.
	greedy := pattern.MustParse(`(\LU\LL*\ )\A*`)
	fixed := pattern.MustParse(`(\D{3})\D{2}`)
	prefix := pattern.MustParse(`(John\ )\A*`)
	general := pattern.MustParse(`\D+(\LU\LL+)\A*`)
	rep.Results = append(rep.Results,
		measure("pattern/Match/greedy", 50*time.Millisecond, func() { greedy.Match("Tayseer Fahmi") }),
		measure("pattern/Match/fixed", 50*time.Millisecond, func() { fixed.Match("90012") }),
		measure("pattern/Match/prefix", 50*time.Millisecond, func() { prefix.Match("John Smith") }),
		measure("pattern/Match/generalDP", 50*time.Millisecond, func() { general.Match("42Fahmi-rest") }),
		measure("pattern/ConstrainedSpan/greedy", 50*time.Millisecond, func() { greedy.ConstrainedSpan("Tayseer Fahmi") }),
	)

	// Micro: violation detection on a variable PFD.
	vt, _ := datagen.ZipState(912, seed)
	datagen.InjectErrors(vt, "state", 0.05, false, 2)
	vp := pfd.MustNew("ZipState", []string{"zip"}, "state", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: pfd.Wildcard(),
	})
	rep.Results = append(rep.Results,
		measure("pfd/Violations/zipState", 100*time.Millisecond, func() { vp.Violations(vt) }),
		measure("repair/Detect/zipState", 100*time.Millisecond, func() { repair.Detect(vt, []*pfd.PFD{vp}) }),
	)

	// Micro: .pfdt snapshot load vs CSV parse+intern on the T13 table —
	// the warmup-path win the snapshot format exists for.
	rep.Results = append(rep.Results, benchSnapshot(scale, seed, dirt)...)

	// Streaming engine: tuples/sec from 1/4/8 producers on the
	// T13-scale stream (the match phase runs in producer goroutines;
	// the fold is serialized under the engine lock). The entries keep
	// their historical "shardsN" names, N now being the producer count,
	// so the bench gate still finds them.
	rep.Results = append(rep.Results, benchStream(scale, seed, dirt)...)

	// Out-of-core discovery: the chunked path against in-memory
	// discovery on the same T13 workload (the ≤1.5× acceptance ratio),
	// plus sample-then-verify throughput.
	rep.Results = append(rep.Results, benchOOC(scale, seed, dirt)...)

	// Multi-rule planner: shared-group validation at ruleset scale
	// against the independent per-rule loop, plus plan-construction
	// time (the <100µs acceptance bar).
	rep.Results = append(rep.Results, benchPlan(scale, seed, dirt)...)

	// Macro: full discovery per dataset with the headline quality
	// metrics. Micro mode keeps only T13 — the heaviest workload and the
	// one the CI regression gate watches (discovery/Discover/T13) — so
	// the gate sees a discovery number without paying for all 15 tables.
	specs := datagen.Specs()
	if microOnly {
		t13, ok := datagen.SpecByID("T13")
		if !ok {
			panic("T13 spec missing")
		}
		specs = []datagen.Spec{t13}
	}
	for _, spec := range specs {
		rows := int(float64(spec.PaperRows) * scale)
		if rows < 300 {
			rows = 300
		}
		t, truth := spec.Build(rows, seed, dirt)
		var res *discovery.Result
		r := measure("discovery/Discover/"+spec.ID, 200*time.Millisecond, func() {
			res = discovery.Discover(t, discovery.DefaultParams())
		})
		var keys []string
		for _, d := range res.Dependencies {
			keys = append(keys, d.Embedded())
		}
		p, rc := precisionRecall(keys, truth.DepKeys())
		r.Metrics = map[string]float64{
			"rows":      float64(rows),
			"deps":      float64(len(res.Dependencies)),
			"precision": p,
			"recall":    rc,
		}
		rep.Results = append(rep.Results, r)
	}

	if err := benchfmt.Write(out, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", out, len(rep.Results))
	return nil
}

// benchSnapshot serializes the T13 table once in both formats and
// times deserialization from memory: relation/LoadSnapshot/T13 (the
// binary dict+codes read) against relation/ReadCSV/T13 (parse +
// re-intern). The LoadSnapshot result carries speedup_vs_csv so the
// ≥5× acceptance bar is visible in the snapshot itself.
func benchSnapshot(scale float64, seed int64, dirt float64) []benchfmt.Result {
	spec, ok := datagen.SpecByID("T13")
	if !ok {
		panic("T13 spec missing")
	}
	rows := int(float64(spec.PaperRows) * scale)
	if rows < 2000 {
		rows = 2000
	}
	t, _ := spec.Build(rows, seed, dirt)

	var snapBuf, csvBuf bytes.Buffer
	if err := t.WriteSnapshot(&snapBuf); err != nil {
		panic(err)
	}
	if err := t.WriteCSV(&csvBuf); err != nil {
		panic(err)
	}
	snap, csvb := snapBuf.Bytes(), csvBuf.Bytes()

	load := measure("relation/LoadSnapshot/T13", 100*time.Millisecond, func() {
		if _, err := relation.LoadSnapshot(bytes.NewReader(snap)); err != nil {
			panic(err)
		}
	})
	parse := measure("relation/ReadCSV/T13", 100*time.Millisecond, func() {
		if _, err := relation.ReadCSV("T13", bytes.NewReader(csvb)); err != nil {
			panic(err)
		}
	})
	load.Metrics = map[string]float64{
		"rows":           float64(rows),
		"bytes":          float64(len(snap)),
		"speedup_vs_csv": parse.NsPerOp / load.NsPerOp,
	}
	parse.Metrics = map[string]float64{
		"rows":  float64(rows),
		"bytes": float64(len(csvb)),
	}
	return []benchfmt.Result{load, parse}
}

func benchStream(scale float64, seed int64, dirt float64) []benchfmt.Result {
	spec, ok := datagen.SpecByID("T13")
	if !ok {
		panic("T13 spec missing")
	}
	rows := int(float64(spec.PaperRows) * scale)
	if rows < 2000 {
		rows = 2000
	}
	t, _ := spec.Build(rows, seed, dirt)
	tuples := benchutil.TableTuples(t)
	pfds := benchutil.StreamPFDs()

	var out []benchfmt.Result
	for _, producers := range []int{1, 4, 8} {
		r := measure(fmt.Sprintf("stream/Check/T13/shards%d", producers), 200*time.Millisecond, func() {
			benchutil.RunStreamPass(pfds, tuples, producers)
		})
		r.Metrics = map[string]float64{
			"producers":      float64(producers),
			"rows":           float64(rows),
			"tuples_per_sec": float64(rows) / (r.NsPerOp / 1e9),
		}
		out = append(out, r)
	}
	return out
}

// benchOOC times chunked out-of-core discovery on the T13 workload —
// 8 chunks, a 10% sample, full verification, no confirm pass, so the
// work compared is exactly what in-memory discovery does — and reports
// ratio_vs_inmemory (the ≤1.5× acceptance bar). A second result rates
// sample-then-verify throughput, where the sample screens the lattice
// before the exact evaluation pass.
func benchOOC(scale float64, seed int64, dirt float64) []benchfmt.Result {
	spec, ok := datagen.SpecByID("T13")
	if !ok {
		panic("T13 spec missing")
	}
	rows := int(float64(spec.PaperRows) * scale)
	if rows < 2000 {
		rows = 2000
	}
	t, _ := spec.Build(rows, seed, dirt)
	ctx := context.Background()
	params := discovery.DefaultParams()

	inmem := measure("discovery/InMemoryBaseline/T13", 200*time.Millisecond, func() {
		discovery.Discover(t, params)
	})

	var res *ooc.Result
	chunked := measure("discovery/OOC/T13", 200*time.Millisecond, func() {
		var err error
		res, err = ooc.Discover(ctx, source.FromTable(t), ooc.Options{
			Params:      params,
			ChunkRows:   (rows + 7) / 8,
			SampleRows:  rows / 10,
			SkipConfirm: true,
		})
		if err != nil {
			panic(err)
		}
	})
	chunked.Metrics = map[string]float64{
		"rows":               float64(rows),
		"chunks":             float64(res.Stats.Chunks),
		"deps":               float64(len(res.Dependencies)),
		"ratio_vs_inmemory":  chunked.NsPerOp / inmem.NsPerOp,
		"peak_resident_byte": float64(res.Stats.PeakResident),
	}

	var sres *ooc.Result
	sampled := measure("ooc/SampleVerify/T13", 200*time.Millisecond, func() {
		var err error
		sres, err = ooc.Discover(ctx, source.FromTable(t), ooc.Options{
			Params:      params,
			ChunkRows:   (rows + 7) / 8,
			SampleRows:  rows / 4,
			Verify:      ooc.VerifySample,
			SkipConfirm: true,
		})
		if err != nil {
			panic(err)
		}
	})
	sampled.Metrics = map[string]float64{
		"rows":         float64(rows),
		"deps":         float64(len(sres.Dependencies)),
		"screened_out": float64(sres.Stats.ScreenedOut),
		"rows_per_sec": float64(rows) / (sampled.NsPerOp / 1e9),
	}
	return []benchfmt.Result{inmem, chunked, sampled}
}

// benchPlan rates multi-rule validation at ruleset scale on the T13
// workload. The rulesets replicate compact serving-style rule families
// as fresh PFD objects, which models the reality the planner exists
// for: rulesets where hundreds of rules ride the same few LHS
// signatures. Three results per ruleset size:
// plan/Build/T13/rulesN (construction time, the <100µs bar, in
// build_us), plan/Validate/T13/rulesN (shared-group execution through
// a warm plan, carrying speedup_vs_independent — the ≥3× bar at 100
// rules), and plan/Independent/T13/rulesN (the per-rule baseline loop
// it is compared against).
func benchPlan(scale float64, seed int64, dirt float64) []benchfmt.Result {
	spec, ok := datagen.SpecByID("T13")
	if !ok {
		panic("T13 spec missing")
	}
	rows := int(float64(spec.PaperRows) * scale)
	if rows < 2000 {
		rows = 2000
	}
	t, _ := spec.Build(rows, seed, dirt)

	// Serving-style rule families over the T13 truth dependencies:
	// compact tableaux, patterns compiled once (replicated rules share
	// pattern pointers exactly as a tenant's parsed ruleset shares its
	// compiled tableau), plus a dead-constant family the short-circuit
	// pass retires. Every size replicates the same five families, so
	// rulesN differs from rules10 only in how many rules ride each
	// shared LHS group.
	prefix := pattern.MustParse(`(\LU+)\-\D*`)
	sem := pattern.MustParse(`\LU+(\D{4})`)
	dead := pattern.Constant("no-such-dept")
	wild := pfd.Row{LHS: []pfd.Cell{pfd.Wildcard()}, RHS: pfd.Wildcard()}
	base := []*pfd.PFD{
		pfd.MustNew("T13", []string{"course_id"}, "dept", wild),
		pfd.MustNew("T13", []string{"semester"}, "year",
			pfd.Row{LHS: []pfd.Cell{pfd.Pat(sem)}, RHS: pfd.Wildcard()}),
		pfd.MustNew("T13", []string{"course_id"}, "dept",
			pfd.Row{LHS: []pfd.Cell{pfd.Pat(prefix)}, RHS: pfd.Wildcard()}),
		pfd.MustNew("T13", []string{"dept"}, "course_id",
			pfd.Row{LHS: []pfd.Cell{pfd.Wildcard()}, RHS: pfd.Pat(prefix)}),
		pfd.MustNew("T13", []string{"dept"}, "grade",
			pfd.Row{LHS: []pfd.Cell{pfd.Pat(dead)}, RHS: pfd.Wildcard()}),
	}
	mk := func(n int) []*pfd.PFD {
		out := make([]*pfd.PFD, n)
		for i := range out {
			b := base[i%len(base)]
			out[i] = pfd.MustNew(b.Relation, b.LHS, b.RHS, b.Tableau...)
		}
		return out
	}

	var out []benchfmt.Result
	for _, n := range []int{10, 100, 1000} {
		pfds := mk(n)

		var pl *plan.Plan
		build := measure(fmt.Sprintf("plan/Build/T13/rules%d", n), 50*time.Millisecond, func() {
			pl = plan.New(pfds)
		})
		d := pl.Describe()
		build.Metrics = map[string]float64{
			"rules":          float64(n),
			"build_us":       build.NsPerOp / 1e3,
			"groups":         float64(d.Groups),
			"distinct_cells": float64(d.DistinctCells),
		}

		indep := measure(fmt.Sprintf("plan/Independent/T13/rules%d", n), 100*time.Millisecond, func() {
			for _, p := range pfds {
				p.Violations(t)
			}
		})
		indep.Metrics = map[string]float64{
			"rules": float64(n),
			"rows":  float64(rows),
		}

		planned := measure(fmt.Sprintf("plan/Validate/T13/rules%d", n), 100*time.Millisecond, func() {
			pl.Violations(t)
		})
		planned.Metrics = map[string]float64{
			"rules":                  float64(n),
			"rows":                   float64(rows),
			"groups":                 float64(d.Groups),
			"distinct_cells":         float64(d.DistinctCells),
			"speedup_vs_independent": indep.NsPerOp / planned.NsPerOp,
		}

		out = append(out, build, planned, indep)
	}
	return out
}

// precisionRecall computes discovered-vs-truth precision and recall.
func precisionRecall(got, want []string) (float64, float64) {
	ws := map[string]bool{}
	for _, w := range want {
		ws[w] = true
	}
	seen := map[string]bool{}
	tp := 0
	for _, g := range got {
		if !seen[g] {
			seen[g] = true
			if ws[g] {
				tp++
			}
		}
	}
	var p, r float64
	if len(seen) > 0 {
		p = float64(tp) / float64(len(seen))
	}
	if len(want) > 0 {
		r = float64(tp) / float64(len(want))
	}
	return p, r
}
