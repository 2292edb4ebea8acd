// Command pfdstream validates a tuple stream on stdin against PFDs,
// using the streaming engine (internal/stream). The rules come from a
// saved ruleset artifact (-rules, written by `pfd discover -rules`) or
// are mined on the fly from a trusted reference batch (-ref); with
// both, the artifact supplies the rules and the reference only warms
// the group state.
//
// Usage:
//
//	pfdstream -ref reference.csv [-in stream.csv] [-format csv|jsonl]
//	          [-warm] [-quiet] [-json] [-k 5] [-delta 0.05] [-coverage 0.10]
//	          [-lhs 1] < stream
//	pfdstream -rules r.pfd [-ref reference.csv] [flags] < stream
//
// The reference batch — CSV with a header row, or a .pfdt binary
// snapshot written by `pfd discover -save-table`, which loads in one
// sequential read instead of CSV parse + intern — is mined offline
// with the Figure 4 discovery algorithm; the resulting PFDs then guard
// the stream through pfd.Validate, from one producer goroutine that
// numbers rows in input order, so two runs over the same input print
// the same findings. With -warm (the default) the reference
// rows are folded into the engine first, so group consensus exists
// before the first live tuple (-rules without -ref has no reference to
// warm from). The live stream comes from stdin, or from a file with
// -in: CSV with a header row, or JSONL (one flat
// object per line) with -format jsonl — both are pfd.Source
// implementations from the shared ingestion layer, so the parsing
// (and its error reporting) is identical to every other entry point.
//
// Violations attributed to live tuples are printed as they are found;
// retroactive signals (a majority forming after an earlier suspect
// tuple) are summarized once, since they re-fire per majority-side
// tuple and may stem from delta-tolerated dirt in the reference batch.
// A summary with throughput goes to stderr. With -json the final
// report — rows, live violations, throughput — is emitted as a single
// JSON object on stdout instead of per-violation lines, for machine
// consumption — the report is the versioned pfd.Report envelope, the
// same contract every pfdserved read endpoint answers with, parsed on
// either side by pfd.ParseReport. The exit status is 1 when live tuples raised
// violations, 2 on usage, I/O, or cancellation (SIGINT) errors, 0
// otherwise — so the command composes as a pipeline gate.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"iter"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"pfd"
)

func main() {
	ref := flag.String("ref", "", "trusted reference batch to mine PFDs from (or to warm with, under -rules): CSV, or a .pfdt snapshot")
	rulesPath := flag.String("rules", "", "ruleset artifact to validate against (skips mining)")
	in := flag.String("in", "", "input stream file (default: stdin)")
	format := flag.String("format", "csv", "input format: csv (header row) or jsonl")
	warm := flag.Bool("warm", true, "fold the reference rows in before validating")
	quiet := flag.Bool("quiet", false, "suppress per-violation lines")
	jsonOut := flag.Bool("json", false, "emit the final report as JSON on stdout (suppresses per-violation lines)")
	k := flag.Int("k", 5, "discovery: minimum support K")
	delta := flag.Float64("delta", 0.05, "discovery: allowed violation ratio δ")
	coverage := flag.Float64("coverage", 0.10, "discovery: minimum coverage γ")
	lhs := flag.Int("lhs", 1, "discovery: maximum LHS attributes")
	flag.Parse()
	if *ref == "" && *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "pfdstream: -ref or -rules is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The rules: load the shared artifact, or mine the reference batch.
	var (
		rules    *pfd.Ruleset
		refTable *pfd.Table
	)
	if *rulesPath != "" {
		rs, err := pfd.LoadRulesetFile(*rulesPath)
		if err != nil {
			fatal(err)
		}
		if rs.Len() == 0 {
			fatal(fmt.Errorf("%s holds no rules; nothing to validate against", *rulesPath))
		}
		rules = rs
		if *ref != "" && *warm {
			// The reference only warms the group state here; skip the
			// read entirely when -warm=false.
			t, err := pfd.ReadTable(ctx, refSource(*ref))
			if err != nil {
				fatal(err)
			}
			refTable = t
		}
		fmt.Fprintf(os.Stderr, "pfdstream: loaded %d rules from %s\n", rules.Len(), *rulesPath)
	} else {
		disc, err := pfd.Discover(ctx, refSource(*ref),
			pfd.WithMinSupport(*k), pfd.WithDelta(*delta),
			pfd.WithMinCoverage(*coverage), pfd.WithMaxLHS(*lhs))
		if err != nil {
			fatal(err)
		}
		rules = disc.Ruleset()
		if rules.Len() == 0 {
			fatal(fmt.Errorf("no dependencies mined from %s; nothing to validate against", *ref))
		}
		refTable = disc.Table()
		fmt.Fprintf(os.Stderr, "pfdstream: mined %d dependencies from %s (%d rows)\n",
			rules.Len(), *ref, refTable.NumRows())
	}

	input := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		input = f
	}
	var stdin pfd.Source
	switch *format {
	case "csv":
		stdin = pfd.FromCSV("stream", input)
	case "jsonl":
		stdin = pfd.FromJSONL("stream", input)
	default:
		fatal(fmt.Errorf("unknown -format %q (want csv or jsonl)", *format))
	}

	// Only NewTuple findings count as live violations (and decide the
	// exit status): retroactive signals (Row=-1) re-fire on every
	// majority-side tuple while a group disagrees, so a delta-tolerated
	// dirty row in the *reference* would otherwise flag — and spam — a
	// perfectly clean live stream. They are tallied separately and
	// summarized once. Warm-replay violations never reach the handler:
	// Validate suppresses delivery until the live phase starts. The
	// engine never overlaps handler calls, so the handler needs no lock.
	var liveViolations, retroSignals int64
	var jsonFindings []pfd.ReportFinding // -json: live findings, handler-collected
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	useWarm := *warm && refTable != nil
	warmRows := 0
	if useWarm {
		warmRows = refTable.NumRows()
	}

	opts := []pfd.StreamOption{
		// All modes consume violations through the handler: retaining
		// them in the engine (which would also keep every retroactive
		// re-fire and warm-phase finding) grows without bound on long
		// streams.
		pfd.WithoutViolationLog(),
		pfd.WithViolationHandler(func(v pfd.StreamViolation) {
			if !v.NewTuple {
				retroSignals++
				return
			}
			liveViolations++
			if *jsonOut {
				jsonFindings = append(jsonFindings, pfd.FindingOf(v, warmRows))
				return
			}
			if *quiet {
				return
			}
			if v.Expected != "" {
				fmt.Fprintf(out, "row %d: %s should be %q (by %s)\n",
					v.Cell.Row-warmRows, v.Cell.Col, v.Expected, v.PFD.Embedded())
			} else {
				fmt.Fprintf(out, "row %d: %s breaks %s\n",
					v.Cell.Row-warmRows, v.Cell.Col, v.PFD.Embedded())
			}
		}),
	}
	if useWarm {
		opts = append(opts, pfd.WithWarmup(pfd.FromTable(refTable)))
	}

	clock := &liveClock{Source: stdin}
	start := time.Now()
	val, err := rules.Validate(ctx, clock, opts...)
	// Throughput is a live-phase number: the warm replay happens inside
	// Validate, so time from when the live source was first iterated
	// (i.e. after the warm replay), not from before Validate.
	elapsed := time.Since(start)
	if !clock.start.IsZero() {
		elapsed = time.Since(clock.start)
	}
	if err != nil {
		out.Flush()
		fatal(err)
	}

	liveRows := val.LiveRows()
	tps := float64(liveRows) / elapsed.Seconds()
	if *jsonOut {
		rep := buildReport(rules.Name, val, elapsed, retroSignals, jsonFindings)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			out.Flush()
			fatal(err)
		}
	}
	out.Flush()
	fmt.Fprintf(os.Stderr,
		"pfdstream: checked %d tuples in %s (%.0f tuples/sec): %d violations\n",
		liveRows, elapsed.Round(time.Millisecond), tps, liveViolations)
	if n := retroSignals; n > 0 {
		fmt.Fprintf(os.Stderr,
			"pfdstream: %d retroactive signals (earlier tuples in disagreeing groups are suspect; not counted as live violations)\n", n)
	}
	if liveViolations > 0 {
		os.Exit(1)
	}
}

// buildReport assembles the -json report — the versioned pfd.Report
// envelope the pfdserved API also speaks — from a finished validation
// and the handler-collected live findings (retroactive signals are a
// count, for the reasons the command doc explains), with the findings
// in the report's canonical order (Report.Sort).
func buildReport(name string, val *pfd.Validation, elapsed time.Duration, retro int64, findings []pfd.ReportFinding) *pfd.Report {
	rep := pfd.NewReport(name)
	rep.Rows = val.Rows()
	rep.WarmRows = val.WarmRows()
	rep.LiveRows = val.LiveRows()
	rep.LiveViolations = len(findings)
	rep.RetroSignals = retro
	rep.SetTiming(elapsed)
	rep.Violations = append(rep.Violations, findings...)
	rep.Sort()
	return rep
}

// liveClock wraps the stdin source and stamps when its iteration
// begins. Validate folds the WithWarmup reference in before it first
// iterates the live source, so the stamp marks the end of warmup; the
// single producer iterates the source from one goroutine, so the
// unsynchronized write is safe.
type liveClock struct {
	pfd.Source
	start time.Time
}

func (s *liveClock) Tuples(ctx context.Context) iter.Seq2[pfd.Tuple, error] {
	inner := s.Source.Tuples(ctx)
	return func(yield func(pfd.Tuple, error) bool) {
		if s.start.IsZero() {
			s.start = time.Now()
		}
		inner(yield)
	}
}

// refSource opens the reference batch: a .pfdt binary snapshot
// (written by `pfd discover -save-table`) loads in one sequential read
// — no CSV parsing, no re-interning — which is the fast warmup path
// for large references; anything else is header-first CSV.
func refSource(path string) pfd.Source {
	if filepath.Ext(path) == ".pfdt" {
		return pfd.FromSnapshotFile("ref", path)
	}
	return pfd.FromCSVFile("ref", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfdstream:", err)
	os.Exit(2)
}
