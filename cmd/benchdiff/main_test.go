package main

import (
	"strings"
	"testing"
)

// parent is two runs of a package's benchmarks as go test -benchmem
// prints them: a -2 GOMAXPROCS suffix, a sub-benchmark with a custom
// metric column, and one zero-alloc benchmark.
const parent = `goos: linux
goarch: amd64
pkg: pfd/internal/plan
cpu: Intel(R) Xeon(R) Processor
BenchmarkRulesetT13/rules10/Validate-2   	     100	   1000000 ns/op	         3.10 speedup_vs_independent	  20000 B/op	     120 allocs/op
BenchmarkMatch-2                         	10000000	       100.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkRulesetT13/rules10/Validate-2   	     100	   1200000 ns/op	         2.90 speedup_vs_independent	  20000 B/op	     120 allocs/op
BenchmarkMatch-2                         	10000000	       110.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	pfd/internal/plan	3.1s
`

// lines builds go test output for package pfd/internal/plan from
// result lines.
func lines(results ...string) string {
	return "pkg: pfd/internal/plan\n" + strings.Join(results, "\n") + "\nPASS\n"
}

func TestParse(t *testing.T) {
	r, err := parse(strings.NewReader(parent))
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"pfd/internal/plan.BenchmarkRulesetT13/rules10/Validate", "pfd/internal/plan.BenchmarkMatch"}
	if strings.Join(r.keys, ",") != strings.Join(wantKeys, ",") {
		t.Fatalf("keys %q, want %q", r.keys, wantKeys)
	}
	v := r.by[wantKeys[0]]
	if len(v.ns) != 2 || v.ns[1] != 1200000 || len(v.allocs) != 2 || v.allocs[0] != 120 {
		t.Fatalf("Validate samples %+v", v)
	}
	if _, err := parse(strings.NewReader(lines("BenchmarkX-2 10 12 B/op"))); err == nil {
		t.Fatal("a result line without ns/op parsed")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{100, 1, 2, 3, 1000}, 3},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestDiff(t *testing.T) {
	for _, c := range []struct {
		name       string
		old, new   string
		wantFailed int
		wantLine   string
	}{
		{name: "identical inputs pass", old: parent, new: parent, wantLine: "all 2 watched benchmarks within bounds"},
		{
			// The medians are 1.1e6 and 105 on the parent; one slow
			// run out of three on the change does not move them.
			name: "median over counts absorbs one slow run",
			old:  parent,
			new: lines(
				"BenchmarkRulesetT13/rules10/Validate-2 100 1100000 ns/op 120 allocs/op",
				"BenchmarkRulesetT13/rules10/Validate-2 100 9900000 ns/op 120 allocs/op",
				"BenchmarkRulesetT13/rules10/Validate-2 100 1100000 ns/op 120 allocs/op",
				"BenchmarkMatch-2 100 100 ns/op 0 allocs/op",
				"BenchmarkMatch-2 100 999 ns/op 0 allocs/op",
				"BenchmarkMatch-2 100 110 ns/op 0 allocs/op"),
			wantLine: "ok        pfd/internal/plan.BenchmarkRulesetT13/rules10/Validate  1100000.0 -> 1100000.0 ns/op (1.00x, 2/3 runs)",
		},
		{
			name: "1.5x slower ns/op fails",
			old:  parent,
			new: lines(
				"BenchmarkRulesetT13/rules10/Validate-2 100 1100000 ns/op 120 allocs/op",
				"BenchmarkMatch-2 100 157.5 ns/op 0 allocs/op"),
			wantFailed: 1,
			wantLine:   "REGRESSED pfd/internal/plan.BenchmarkMatch  105.0 -> 157.5 ns/op (1.50x, 2/1 runs)",
		},
		{
			name: "one extra alloc on a zero-alloc benchmark fails",
			old:  parent,
			new: lines(
				"BenchmarkRulesetT13/rules10/Validate-2 100 1100000 ns/op 120 allocs/op",
				"BenchmarkMatch-2 100 105 ns/op 1 allocs/op"),
			wantFailed: 1,
			wantLine:   "REGRESSED pfd/internal/plan.BenchmarkMatch  0.0 -> 1.0 allocs/op",
		},
		{
			name: "allocs/op within 1.2x + 0.5 pass",
			old:  parent,
			new: lines(
				"BenchmarkRulesetT13/rules10/Validate-2 100 1100000 ns/op 144 allocs/op",
				"BenchmarkMatch-2 100 105 ns/op 0 allocs/op"),
			wantLine: "all 2 watched benchmarks within bounds",
		},
		{
			name:       "benchmark missing on the change fails",
			old:        parent,
			new:        lines("BenchmarkMatch-2 100 105 ns/op 0 allocs/op"),
			wantFailed: 1,
			wantLine:   "MISSING   pfd/internal/plan.BenchmarkRulesetT13/rules10/Validate",
		},
		{
			name: "benchmark new on the change is not gated",
			old:  parent,
			new: parent + lines(
				"BenchmarkExtra-2 100 5 ns/op 9 allocs/op"),
			wantLine: "new       pfd/internal/plan.BenchmarkExtra",
		},
		{
			name:       "same name in another package is another benchmark",
			old:        parent,
			new:        strings.ReplaceAll(parent, "pkg: pfd/internal/plan", "pkg: pfd/internal/ooc"),
			wantFailed: 2,
			wantLine:   "MISSING   pfd/internal/plan.BenchmarkMatch",
		},
		{name: "empty parent output fails", old: "PASS\n", new: parent, wantFailed: 1, wantLine: "nothing gated"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o, err := parse(strings.NewReader(c.old))
			if err != nil {
				t.Fatal(err)
			}
			n, err := parse(strings.NewReader(c.new))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if got := diff(&out, o, n); got != c.wantFailed {
				t.Errorf("failed checks = %d, want %d", got, c.wantFailed)
			}
			if !strings.Contains(out.String(), c.wantLine) {
				t.Errorf("output lacks %q:\n%s", c.wantLine, out.String())
			}
		})
	}
}
