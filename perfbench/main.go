// Command perfbench is the repository's benchmark: three workloads over
// the PFD stack, measured from outside. The ingest workloads drive the
// real pfdserved binary over loopback HTTP from one closed-loop load
// generator; the batch workload runs the paper's discover → detect →
// repair pipeline through the root API in a process of its own. A
// traced run (-trace 1) splits each workload's time across the
// repository's layers. See README.md.
//
// Run it from the repository root through the wrapper, which builds
// pfdserved and this command first:
//
//	bash perfbench/run.sh --workload ingest-rules --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is the run's JSON result; the
// human-readable report goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// runOpts are a run's settings that are not the seed.
type runOpts struct {
	root    string // checkout root
	work    string // scratch directory of this run, inside the checkout
	server  string // pfdserved binary
	self    string // this binary, for the batch child
	seconds int
}

var workloads = []string{"ingest-rules", "ingest-durable", "batch-paper"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloads))
	seed := flag.Int64("seed", 1, "workload seed (generator seeds of the data, nothing else)")
	seconds := flag.Int("seconds", 40, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	server := flag.String("server", "", "pfdserved binary")
	role := flag.String("role", "", "internal: batch child process")
	dir := flag.String("dir", "", "internal: batch child's input directory")
	steady := flag.Int("steady", 0, "steadiness report: run each -workload (comma-separated) this many times, seeds -seed..")
	sameSeed := flag.Bool("same-seed", false, "steadiness report: run every time with -seed")
	pin := flag.String("pin", "", "batch-paper: write this run's output digests to the given golden file")
	flag.Parse()

	ctx := context.Background()
	if *role == "batch" {
		return batchChild(ctx, *dir, *seconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if *steady > 0 {
		return steadiness(*root, self, *server, *workload, *seed, *sameSeed, *steady, *seconds)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	o := runOpts{root: *root, server: *server, self: self, seconds: *seconds}
	o.work = filepath.Join(*root, ".bench_build", "work", *workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)

	var res *runResult
	if *workload == "batch-paper" {
		tables := batchData(*seed)
		if *trace == 1 {
			res, err = traceBatch(ctx, tables, o)
		} else {
			res, err = runBatch(ctx, tables, o)
		}
	} else {
		spec := ingestSpecByName(*workload)
		if spec == nil {
			return fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads)
		}
		ref, stream := ingestData(spec, *seed)
		if *trace == 1 {
			res, err = traceIngest(ctx, spec, ref, stream, o)
		} else {
			res, err = runIngest(ctx, spec, ref, stream, o)
		}
	}
	if err != nil {
		return err
	}
	if *pin != "" {
		if err := pinGolden(*pin, res.digests); err != nil {
			return err
		}
	}
	res.report(os.Stderr, *workload, *seed)
	return res.print(os.Stdout)
}

func ingestSpecByName(name string) *ingestSpec {
	for _, s := range []*ingestSpec{ingestRules, ingestDurable} {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metricVal is one metric of the JSON result.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's outcome: the JSON result plus the notes the
// human-readable report prints.
type runResult struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metricVal
	samples           map[string]int
	notes             []string
	digests           []tableDigest // batch-paper: for -pin
}

func newRunResult() *runResult {
	return &runResult{metrics: map[string]metricVal{}, samples: map[string]int{}}
}

// set records a metric and the number of samples behind it.
func (r *runResult) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metricVal{Value: v, Unit: unit}
	r.samples[name] = samples
}

// pct records the p-th percentile of sorted milliseconds. A percentile
// the sample cannot support, or one that lands on a failed operation,
// fails the run rather than print a number that means nothing.
func (r *runResult) pct(name string, sorted []float64, p float64) {
	v, err := percentile(sorted, p)
	if err != nil || math.IsInf(v, 1) {
		r.failed++
		if err == nil {
			err = fmt.Errorf("p%v is a failed operation", p)
		}
		r.failures = append(r.failures, fmt.Sprintf("%s over %d samples: %v", name, len(sorted), err))
		v = -1
	}
	r.set(name, v, "ms", len(sorted))
}

// note adds a distribution line: sample count, median, and the highest
// percentile with at least ten samples beyond it.
func (r *runResult) note(what string, sorted []float64) {
	line := fmt.Sprintf("%s: n=%d", what, len(sorted))
	if len(sorted) > 0 {
		line += fmt.Sprintf(" median=%.3fms", median(sorted))
	}
	if p, ok := tailPercentile(len(sorted)); ok {
		v, _ := percentile(sorted, p)
		line += fmt.Sprintf(" p%v=%.3fms", p, v)
	} else {
		line += " (too few samples for a tail percentile)"
	}
	r.notes = append(r.notes, line)
}

func (r *runResult) report(w *os.File, workload string, seed int64) {
	fmt.Fprintf(w, "\n%s seed %d: %d attempted, %d failed\n", workload, seed, r.attempted, r.failed)
	for _, name := range sortedKeys(r.metrics) {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-32s %16.6g %-6s (%d samples)\n", name, m.Value, m.Unit, r.samples[name])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED: "+f)
	}
}

// print writes the JSON result line.
func (r *runResult) print(w *os.File) error {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{len(r.failures) == 0, max(r.attempted, 1), r.failed, r.metrics}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
