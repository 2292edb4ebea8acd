// Command pfdbench regenerates the paper's evaluation artifacts (Section
// 5) on the synthetic stand-in datasets: Table 7 (discovery comparison
// and error detection), Table 8 (PFD validation), Table 3 (qualitative
// samples), Figures 5 and 6 (controlled error injection), and the
// K-sensitivity ablation.
//
// Usage:
//
//	pfdbench -exp all|table3|table7|table8|fig5|fig6|ablation [-scale 0.1] [-seed 1] [-dirt 0.01]
//
// Scale 1.0 reproduces the paper's row counts; the default 0.1 finishes
// in about a minute on a laptop.
//
// The extra experiment "bench" times the hot paths (compiled pattern
// matchers, violation detection, streaming-engine throughput from
// 1/4/8 producers, out-of-core vs in-memory discovery on T13, full discovery
// per dataset) and writes a machine-readable snapshot (-benchout,
// default BENCH_PR9.json; schema in internal/benchfmt) so the
// performance trajectory is tracked across PRs. -micro trims the discovery block to the gated T13 workload;
// cmd/benchdiff compares two snapshots and fails on hot-path
// regressions (the CI gate).
package main

import (
	"flag"
	"fmt"
	"os"

	"pfd/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table3, table7, table8, fig5, fig6, ablation, bench")
	scale := flag.Float64("scale", 0.1, "fraction of the paper's row counts")
	seed := flag.Int64("seed", 1, "generator seed")
	dirt := flag.Float64("dirt", 0.01, "generator dirt rate")
	only := flag.String("table", "", "restrict table7 to one dataset id (e.g. T13)")
	benchout := flag.String("benchout", "BENCH_PR9.json", "output path for -exp bench")
	micro := flag.Bool("micro", false, "bench: skip the per-dataset discovery block (fast, for the CI gate)")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Dirt: *dirt}

	run := func(name string) {
		switch name {
		case "table7":
			if *only != "" {
				row, err := experiments.RunTable7One(cfg, *only)
				if err != nil {
					fail(err)
				}
				fmt.Print(experiments.FormatTable7([]experiments.Table7Row{row}))
				return
			}
			fmt.Print(experiments.FormatTable7(experiments.RunTable7(cfg)))
		case "table8":
			fmt.Print(experiments.FormatTable8(experiments.RunTable8(cfg)))
		case "table3":
			fmt.Print(experiments.FormatTable3(experiments.RunTable3(cfg)))
		case "fig5":
			pts := experiments.RunControlled(experiments.DefaultControlledConfig(false))
			fmt.Print(experiments.FormatControlled("Figure 5 (errors outside active domain)", pts))
		case "fig6":
			pts := experiments.RunControlled(experiments.DefaultControlledConfig(true))
			fmt.Print(experiments.FormatControlled("Figure 6 (errors from active domain)", pts))
		case "ablation":
			fmt.Print(experiments.FormatAblation(experiments.RunAblationSupport(cfg, nil)))
		case "ablation2":
			fmt.Print(experiments.FormatDesignAblations(experiments.RunDesignAblations(cfg)))
		case "detectcmp":
			fmt.Print(experiments.FormatDetectComparison(experiments.RunDetectComparison(cfg)))
		case "bench":
			if err := runBench(*scale, *seed, *dirt, *benchout, *micro); err != nil {
				fail(err)
			}
		default:
			fail(fmt.Errorf("unknown experiment %q", name))
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table3", "table7", "table8", "fig5", "fig6", "ablation", "ablation2", "detectcmp"} {
			run(name)
		}
		return
	}
	run(*exp)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pfdbench:", err)
	os.Exit(1)
}
