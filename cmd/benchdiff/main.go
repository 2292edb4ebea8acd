// Command benchdiff is the CI benchmark-regression gate: it compares a
// fresh performance snapshot (written by `pfdbench -exp bench`) against
// a committed baseline and fails when any watched hot path regressed by
// more than the allowed ratio.
//
// Usage:
//
//	benchdiff -old BENCH_PR9.json -new BENCH_CI.json \
//	          [-max-ratio 2.0] [-match pattern/,pfd/,plan/,repair/,discovery/Discover/T13,stream/] \
//	          [-max-alloc-ratio 2.0] [-alloc-match pattern/,pfd/,repair/]
//
// -match is a comma-separated list of result-name prefixes to gate on.
// The default watches the compiled-matcher and detection hot paths,
// the heaviest discovery workload (T13 — the prefix is deliberately
// that one result, since the other 14 macro timings are absent from
// -micro snapshots), and the streaming-engine throughput. A watched
// baseline result missing from the new snapshot is an error: a renamed
// benchmark must update the baseline, not silently drop out of the
// gate.
//
// Results under the -alloc-match prefixes are additionally gated on
// allocs/op: new > max-alloc-ratio × old + 0.5 fails (the absolute
// half-alloc slack keeps near-zero baselines from failing on noise).
// The allocation gate only applies when both snapshots carry the
// number, so baselines written before allocs/op existed still work;
// unlike ns/op, allocation counts are machine-insensitive, which makes
// this the reliable guard for the zero-alloc hot paths.
//
// ns/op comparisons are machine-sensitive: the 2x default headroom
// absorbs same-class CPU variance, but a baseline generated on very
// different hardware can false-fail (or mask) the gate. The
// discovery/ and stream/ entries are additionally CORE-COUNT
// sensitive (worker pools and stream producers scale with
// GOMAXPROCS), so the committed baseline must come from hardware no
// faster than the CI runners — never from a many-core dev box.
// benchdiff prints both snapshots' Go version and CPU count to make
// skew visible; regenerate the committed baseline (`pfdbench -exp
// bench -micro`) from CI-class hardware when the runner fleet
// changes.
//
// Exit status: 0 when every watched path is within budget, 1 on
// regression or missing results, 2 on usage/I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pfd/internal/benchfmt"
)

func main() {
	oldPath := flag.String("old", "", "baseline snapshot (required)")
	newPath := flag.String("new", "", "fresh snapshot (required)")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when new ns/op > ratio × old ns/op")
	match := flag.String("match", "pattern/,pfd/,plan/,repair/,discovery/Discover/T13,stream/", "comma-separated result-name prefixes to gate on")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 2.0, "fail when new allocs/op > ratio × old allocs/op + 0.5 (on -alloc-match paths)")
	allocMatch := flag.String("alloc-match", "pattern/,pfd/,repair/", "comma-separated result-name prefixes to gate allocs/op on")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}

	oldRep, err := benchfmt.Read(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := benchfmt.Read(*newPath)
	if err != nil {
		fatal(err)
	}

	prefixes := splitPrefixes(*match)
	allocPrefixes := splitPrefixes(*allocMatch)

	fmt.Printf("benchdiff: %s (%s, %d cpu) -> %s (%s, %d cpu), max-ratio %.2f\n",
		*oldPath, oldRep.GoVersion, oldRep.NumCPU,
		*newPath, newRep.GoVersion, newRep.NumCPU, *maxRatio)

	failed := 0
	watched := 0
	for _, ores := range oldRep.Results {
		if !matchesAny(ores.Name, prefixes) {
			continue
		}
		watched++
		nres, ok := newRep.Find(ores.Name)
		if !ok {
			fmt.Printf("  MISSING %-40s (in baseline, absent from new snapshot)\n", ores.Name)
			failed++
			continue
		}
		ratio := nres.NsPerOp / ores.NsPerOp
		status := "ok"
		if ratio > *maxRatio {
			status = "REGRESSED"
			failed++
		}
		fmt.Printf("  %-9s %-40s %12.1f -> %12.1f ns/op  (%.2fx)\n",
			status, ores.Name, ores.NsPerOp, nres.NsPerOp, ratio)

		// Allocation gate: only on the alloc-watched prefixes, and only
		// when both snapshots measured it (older baselines lack the
		// field).
		if !matchesAny(ores.Name, allocPrefixes) ||
			ores.AllocsPerOp == nil || nres.AllocsPerOp == nil {
			continue
		}
		oa, na := *ores.AllocsPerOp, *nres.AllocsPerOp
		astatus := "ok"
		if na > *maxAllocRatio*oa+0.5 {
			astatus = "REGRESSED"
			failed++
		}
		fmt.Printf("  %-9s %-40s %12.1f -> %12.1f allocs/op\n",
			astatus, ores.Name, oa, na)
	}
	if watched == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no baseline results match %q — nothing gated\n", *match)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d of %d watched paths failed the %.2fx gate\n",
			failed, watched, *maxRatio)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all %d watched paths within %.2fx\n", watched, *maxRatio)
}

func splitPrefixes(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func matchesAny(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
