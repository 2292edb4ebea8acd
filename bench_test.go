// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact; see DESIGN.md's experiment
// index). Reported custom metrics carry the experiment's headline
// numbers: deps = discovered dependencies, P/R = precision/recall in
// percent. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmark scale (BENCH_SCALE rows fraction) is a compromise between
// fidelity and wall-clock; cmd/pfdbench -scale 1.0 runs the full paper
// row counts.
package pfd_test

import (
	"fmt"
	"strings"
	"testing"

	"pfd/internal/benchutil"
	"pfd/internal/cfd"
	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/experiments"
	"pfd/internal/fd"
	"pfd/internal/index"
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
	"pfd/internal/repair"
)

const benchScale = 0.05

func benchCfg() experiments.Config {
	return experiments.Config{Scale: benchScale, MinRows: 300, Seed: 1, Dirt: 0.01, FDepMaxPairs: 100000}
}

func benchTable(b *testing.B, id string) (*relation.Table, *datagen.Truth) {
	b.Helper()
	spec, ok := datagen.SpecByID(id)
	if !ok {
		b.Fatalf("unknown dataset %s", id)
	}
	rows := int(float64(spec.PaperRows) * benchScale)
	if rows < 300 {
		rows = 300
	}
	t, truth := spec.Build(rows, 1, 0.01)
	return t, truth
}

// BenchmarkTable7FDep regenerates the FDep block of Table 7 (rows 1-4).
func BenchmarkTable7FDep(b *testing.B) {
	for _, spec := range datagen.Specs() {
		b.Run(spec.ID, func(b *testing.B) {
			t, _ := benchTable(b, spec.ID)
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(fd.FDep(t, fd.FDepOptions{MaxPairs: 100000, Seed: 1}))
			}
			b.ReportMetric(float64(n), "deps")
		})
	}
}

// BenchmarkTable7CFD regenerates the CFDFinder block of Table 7 (rows 5-8).
func BenchmarkTable7CFD(b *testing.B) {
	for _, spec := range datagen.Specs() {
		b.Run(spec.ID, func(b *testing.B) {
			t, _ := benchTable(b, spec.ID)
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(cfd.Mine(t, cfd.MinerOptions{Confidence: 0.995, MinSupport: 5, MaxLHS: 1}).Embedded)
			}
			b.ReportMetric(float64(n), "deps")
		})
	}
}

// BenchmarkTable7PFD regenerates the PFD block of Table 7 (rows 9-13):
// single-LHS discovery with the paper's K=5, δ=5%, γ=10%.
func BenchmarkTable7PFD(b *testing.B) {
	for _, spec := range datagen.Specs() {
		b.Run(spec.ID, func(b *testing.B) {
			t, truth := benchTable(b, spec.ID)
			b.ResetTimer()
			var res *discovery.Result
			for i := 0; i < b.N; i++ {
				res = discovery.Discover(t, discovery.DefaultParams())
			}
			b.StopTimer()
			var keys []string
			for _, d := range res.Dependencies {
				keys = append(keys, d.Embedded())
			}
			pr := prOf(keys, truth.DepKeys())
			b.ReportMetric(float64(len(res.Dependencies)), "deps")
			b.ReportMetric(100*pr[0], "P%")
			b.ReportMetric(100*pr[1], "R%")
		})
	}
}

// BenchmarkTable7MultiLHS regenerates the multi-LHS runtime row (row 14).
func BenchmarkTable7MultiLHS(b *testing.B) {
	params := discovery.DefaultParams()
	params.MaxLHS = 2
	for _, spec := range datagen.Specs() {
		b.Run(spec.ID, func(b *testing.B) {
			t, _ := benchTable(b, spec.ID)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				discovery.Discover(t, params)
			}
		})
	}
}

// BenchmarkTable7Errors regenerates the error-detection block (rows
// 15-16): validated PFDs applied to the dirty tables.
func BenchmarkTable7Errors(b *testing.B) {
	for _, spec := range datagen.Specs() {
		b.Run(spec.ID, func(b *testing.B) {
			t, truth := benchTable(b, spec.ID)
			res := discovery.Discover(t, discovery.DefaultParams())
			truthSet := map[string]bool{}
			for _, k := range truth.DepKeys() {
				truthSet[k] = true
			}
			var validated []*pfd.PFD
			for _, d := range res.Dependencies {
				if truthSet[d.Embedded()] {
					validated = append(validated, d.PFD)
				}
			}
			b.ResetTimer()
			var findings []repair.Finding
			for i := 0; i < b.N; i++ {
				findings = repair.Detect(t, validated)
			}
			b.StopTimer()
			tp := 0
			for _, f := range findings {
				if _, ok := truth.Errors[f.Cell]; ok {
					tp++
				}
			}
			b.ReportMetric(float64(len(findings)), "errs")
			if len(findings) > 0 {
				b.ReportMetric(100*float64(tp)/float64(len(findings)), "P%")
			}
		})
	}
}

// BenchmarkTable8 regenerates the PFD-validation experiment.
func BenchmarkTable8(b *testing.B) {
	cfg := benchCfg()
	b.ResetTimer()
	var rows []experiments.Table8Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunTable8(cfg)
	}
	b.StopTimer()
	for _, r := range rows {
		// Metric units must not contain whitespace.
		unit := strings.ReplaceAll(strings.ReplaceAll(r.Dependency, " ", ""), "->", "_to_") + "-P%"
		b.ReportMetric(100*r.Precision, unit)
	}
}

// BenchmarkFigure5 regenerates the outside-active-domain injection sweep
// (one point per iteration batch; the full sweep is in cmd/pfdbench).
func BenchmarkFigure5(b *testing.B) {
	benchControlled(b, false)
}

// BenchmarkFigure6 regenerates the active-domain injection sweep.
func BenchmarkFigure6(b *testing.B) {
	benchControlled(b, true)
}

func benchControlled(b *testing.B, active bool) {
	for _, k := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			cfg := experiments.ControlledConfig{
				Rows: 912, Seed: 1, ActiveDom: active,
				Ks:         []int{k},
				Deltas:     []float64{0.04},
				ErrorRates: []float64{0.05},
			}
			b.ResetTimer()
			var pts []experiments.ControlledPoint
			for i := 0; i < b.N; i++ {
				pts = experiments.RunControlled(cfg)
			}
			b.StopTimer()
			b.ReportMetric(100*pts[0].PR.Precision, "P%")
			b.ReportMetric(100*pts[0].PR.Recall, "R%")
		})
	}
}

// BenchmarkAblationSupport regenerates the §5.1 K-sensitivity sweep.
func BenchmarkAblationSupport(b *testing.B) {
	cfg := benchCfg()
	b.ResetTimer()
	var pts []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.RunAblationSupport(cfg, []int{2, 4, 6})
	}
	b.StopTimer()
	for _, p := range pts {
		b.ReportMetric(100*p.PR.Precision, fmt.Sprintf("K%d-P%%", p.K))
		b.ReportMetric(100*p.PR.Recall, fmt.Sprintf("K%d-R%%", p.K))
	}
}

// Micro-benchmarks for the hot substrate paths. All report allocations:
// the compiled matchers (internal/pattern/compile.go) are pinned to zero
// steady-state allocs by regression tests, and these benchmarks keep the
// perf trajectory visible (cmd/pfdbench -exp bench writes BENCH_PR9.json,
// the CI gate's baseline; earlier snapshots' numbers are in CHANGES.md).

func BenchmarkPatternMatch(b *testing.B) {
	p := pattern.MustParse(`(\LU\LL*\ )\A*`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Match("Tayseer Fahmi")
	}
}

func BenchmarkPatternMatchFixed(b *testing.B) {
	p := pattern.MustParse(`(\D{3})\D{2}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Match("90012")
	}
}

func BenchmarkPatternMatchPrefix(b *testing.B) {
	p := pattern.MustParse(`(John\ )\A*`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Match("John Smith")
	}
}

func BenchmarkPatternMatchGeneralDP(b *testing.B) {
	// \LL+ followed by \A* shares labels, so this stays on the scratch-
	// buffer DP rather than the greedy fast path.
	p := pattern.MustParse(`\D+(\LU\LL+)\A*`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Match("42Fahmi-rest")
	}
}

func BenchmarkPatternConstrainedSpan(b *testing.B) {
	p := pattern.MustParse(`(\LU\LL*\ )\A*`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ConstrainedSpan("Tayseer Fahmi")
	}
}

func BenchmarkLangContains(b *testing.B) {
	big := pattern.MustParse(`\LU\LL*\ \A*`)
	small := pattern.MustParse(`John\ \A*`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pattern.LangContains(big, small)
	}
}

func BenchmarkViolationsVariablePFD(b *testing.B) {
	t, _ := datagen.ZipState(912, 1)
	datagen.InjectErrors(t, "state", 0.05, false, 2)
	p := pfd.MustNew("ZipState", []string{"zip"}, "state", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: pfd.Wildcard(),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Violations(t)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	t, _ := datagen.ZipState(912, 1)
	profs := relation.ProfileTable(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(t, profs, nil, index.Options{MinIDs: 5})
	}
}

func BenchmarkRepairDetect(b *testing.B) {
	t, _ := datagen.ZipState(912, 1)
	datagen.InjectErrors(t, "state", 0.05, false, 2)
	p := pfd.MustNew("ZipState", []string{"zip"}, "state", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: pfd.Wildcard(),
	})
	pfds := []*pfd.PFD{p}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repair.Detect(t, pfds)
	}
}

// BenchmarkStreamCheck measures the streaming engine on the T13-scale
// transcript stream from 1/4/8 producer goroutines (the pattern-match
// phase runs producer-side; the fold is serialized under the engine
// lock). Reported tuples/s is the engine's end-to-end throughput.
// Speedup over one producer requires actual cores — on a single-CPU
// runner the curve is flat by construction.
func BenchmarkStreamCheck(b *testing.B) {
	t, _ := benchTable(b, "T13")
	tuples := benchutil.TableTuples(t)
	pfds := benchutil.StreamPFDs()
	for _, producers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("producers%d", producers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchutil.RunStreamPass(pfds, tuples, producers)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(tuples)*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

func BenchmarkTANE(b *testing.B) {
	t, _ := benchTable(b, "T4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.TANE(t, fd.TANEOptions{MaxError: 0.005})
	}
}

// prOf computes precision/recall of discovered vs truth keys.
func prOf(got, want []string) [2]float64 {
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
	var out [2]float64
	if len(seen) > 0 {
		out[0] = float64(tp) / float64(len(seen))
	}
	if len(want) > 0 {
		out[1] = float64(tp) / float64(len(want))
	}
	return out
}
