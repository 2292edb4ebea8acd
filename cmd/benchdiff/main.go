// Command benchdiff is the CI benchmark-regression gate. It reads two
// `go test -bench -benchmem` text outputs, one from the parent commit
// and one from the change, each holding one or more runs of the same
// benchmarks, and fails when the change regressed a benchmark the
// parent ran.
//
// Usage:
//
//	benchdiff -old parent.txt -new change.txt
//
// Every benchmark in -old is watched; the set is whatever the `-bench`
// regexp of scripts/bench_gate.sh selected. For each one it compares
// the median over the runs of each side and fails on
//
//   - ns/op: change median > maxNsRatio × parent median;
//   - allocs/op: change median > maxAllocRatio × parent median +
//     allocSlack (only where both sides report allocs/op);
//   - a benchmark in -old with no result in -new: a renamed benchmark
//     must not silently drop out of the gate.
//
// A benchmark that only -new has is listed and not gated. Both sides
// must run on the same machine, alternating (scripts/bench_gate.sh
// runs each benchmark on both back to back), so that drift of the
// machine's speed hits both alike; medians then absorb the odd slow
// run.
//
// Exit status: 0 when every watched benchmark is within bounds, 1 on a
// regression, a missing benchmark or an empty -old, 2 on usage and I/O
// errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const (
	// maxNsRatio bounds the change's ns/op median against the parent's.
	// It lies midway between two sets of trials of
	// scripts/bench_gate.sh on a 2-vCPU VM: over 5 unchanged trees no
	// watched benchmark read above 1.27×, and over 5 trees with a 1.5×
	// slowdown injected into PFD.Violations its benchmark read no
	// lower than 1.38× (CHANGES.md lists every trial).
	maxNsRatio = 1.33
	// maxAllocRatio and allocSlack bound allocs/op: allocation counts
	// do not depend on the machine's speed, so the bound is tight, and
	// the half-alloc slack lets a zero-alloc benchmark fail on its first
	// allocation without failing on a rounding of amortized ones.
	maxAllocRatio = 1.2
	allocSlack    = 0.5
)

func main() {
	oldPath := flag.String("old", "", "go test -bench output of the parent commit (required)")
	newPath := flag.String("new", "", "go test -bench output of the change (required)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	oldRuns, err := parseFile(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRuns, err := parseFile(*newPath)
	if err != nil {
		fatal(err)
	}
	if failed := diff(os.Stdout, oldRuns, newRuns); failed > 0 {
		os.Exit(1)
	}
}

// samples holds one benchmark's per-run readings.
type samples struct {
	ns, allocs []float64
}

// runs maps a benchmark's key (package and name without the -N
// GOMAXPROCS suffix) to its readings, and keeps the keys in first-seen
// order for a stable report.
type runs struct {
	keys []string
	by   map[string]*samples
}

func parseFile(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return r, nil
}

// procsSuffix is the -N GOMAXPROCS suffix go test appends to a
// benchmark name when N > 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads go test -bench text: "pkg:" lines set the package of the
// result lines below them; a result line is a name, an iteration count
// and value-unit pairs, of which ns/op and allocs/op are kept and
// custom b.ReportMetric columns are skipped.
func parse(r io.Reader) (*runs, error) {
	out := &runs{by: map[string]*samples{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a log line that starts with a benchmark's name
		}
		var s samples
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%q: bad value %q", line, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
		if len(s.ns) != 1 {
			return nil, fmt.Errorf("%q: no ns/op", line)
		}
		key := procsSuffix.ReplaceAllString(f[0], "")
		if pkg != "" {
			key = pkg + "." + key
		}
		cur, ok := out.by[key]
		if !ok {
			cur = &samples{}
			out.by[key] = cur
			out.keys = append(out.keys, key)
		}
		cur.ns = append(cur.ns, s.ns...)
		cur.allocs = append(cur.allocs, s.allocs...)
	}
	return out, sc.Err()
}

// diff prints the comparison of every benchmark in oldRuns and returns
// the number of failed checks (an empty oldRuns counts as one).
func diff(w io.Writer, oldRuns, newRuns *runs) int {
	if len(oldRuns.keys) == 0 {
		fmt.Fprintln(w, "benchdiff: the parent output holds no benchmark; nothing gated")
		return 1
	}
	fmt.Fprintf(w, "benchdiff: medians, parent -> change; ns/op bound %.2fx, allocs/op bound %.2fx + %.1f\n",
		maxNsRatio, maxAllocRatio, allocSlack)
	failed := 0
	for _, key := range oldRuns.keys {
		o := oldRuns.by[key]
		n, ok := newRuns.by[key]
		if !ok {
			fmt.Fprintf(w, "  MISSING   %s (ran on the parent, absent on the change)\n", key)
			failed++
			continue
		}
		on, nn := median(o.ns), median(n.ns)
		status := "ok"
		if nn > maxNsRatio*on {
			status = "REGRESSED"
			failed++
		}
		fmt.Fprintf(w, "  %-9s %s  %.1f -> %.1f ns/op (%.2fx, %d/%d runs)\n",
			status, key, on, nn, nn/on, len(o.ns), len(n.ns))
		if len(o.allocs) == 0 || len(n.allocs) == 0 {
			continue
		}
		oa, na := median(o.allocs), median(n.allocs)
		status = "ok"
		if na > maxAllocRatio*oa+allocSlack {
			status = "REGRESSED"
			failed++
		}
		fmt.Fprintf(w, "  %-9s %s  %.1f -> %.1f allocs/op\n", status, key, oa, na)
	}
	for _, key := range newRuns.keys {
		if _, ok := oldRuns.by[key]; !ok {
			fmt.Fprintf(w, "  new       %s (not on the parent; not gated)\n", key)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "benchdiff: %d check(s) failed over %d watched benchmarks\n", failed, len(oldRuns.keys))
	} else {
		fmt.Fprintf(w, "benchdiff: all %d watched benchmarks within bounds\n", len(oldRuns.keys))
	}
	return failed
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
