// Command pfd discovers pattern functional dependencies in a CSV file,
// detects violations, and optionally repairs them.
//
// Usage:
//
//	pfd discover -in data.csv [-rules r.pfd] [-k 5] [-delta 0.05] [-coverage 0.10] [-lhs 1]
//	pfd detect   -in data.csv [-rules r.pfd] [-json] [flags as above]
//	pfd repair   -in data.csv -out fixed.csv [-rules r.pfd] [flags as above]
//	pfd score    -in data.csv -truth data.truth.csv [-rules r.pfd] [flags as above]
//
// discover prints the dependencies and their tableaux; detect prints one
// line per suspect cell with the explaining PFD; repair writes a copy of
// the input with the proposed fixes applied; score evaluates discovery
// and detection against a ground-truth sidecar written by cmd/datagen.
//
// -rules names the shared ruleset artifact: discover writes it (the
// λ-notation text codec, or the versioned JSON codec when the path
// ends in .json), and detect/repair/score read it instead of re-running
// discovery — so one mining pass feeds every later invocation, and the
// same file drives pfdstream and pfdinfer. Without -rules the
// subcommands re-discover on each run, as before.
//
// -save-table (discover only) writes the materialized input as a .pfdt
// binary table snapshot alongside the rules; -in accepts a .pfdt path
// in every subcommand, loading the dictionary-encoded table in one
// sequential read instead of re-parsing CSV. The same snapshot feeds
// pfdstream -ref.
//
// All subcommands run on the v2 API: input flows through a pfd.Source,
// and SIGINT cancels the run cleanly (discovery stops at the next
// candidate, exit status 1 with a canceled message). A ruleset naming a
// column the input lacks is refused before detection with exit status 2.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pfd"
	"pfd/internal/datagen"
	"pfd/internal/metrics"
	"pfd/internal/relation"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	in := fs.String("in", "", "input CSV file with a header row (required)")
	out := fs.String("out", "", "output CSV file (repair only)")
	truthPath := fs.String("truth", "", "ground-truth sidecar CSV (score only)")
	rulesPath := fs.String("rules", "", "ruleset artifact: discover writes it, other subcommands load it instead of re-discovering (.json selects the JSON codec)")
	saveTable := fs.String("save-table", "", "write the materialized input as a .pfdt binary snapshot (discover only); later runs load it via -in")
	k := fs.Int("k", 5, "minimum support K")
	delta := fs.Float64("delta", 0.05, "allowed violation ratio δ")
	coverage := fs.Float64("coverage", 0.10, "minimum coverage γ")
	lhs := fs.Int("lhs", 1, "maximum LHS attributes")
	noGen := fs.Bool("nogeneralize", false, "keep constant PFDs; skip generalization")
	jsonOut := fs.Bool("json", false, "emit a JSON report on stdout (detect: the pfd.Report envelope; discover: the pfd-discover-report envelope with peak RSS and rows/s)")
	verbose := fs.Bool("v", false, "report discovery progress per lattice level")
	oocFlag := fs.Bool("ooc", false, "force out-of-core discovery (discover only; implied by -sample/-chunk-rows/-mem-limit/-spill)")
	sample := fs.Int("sample", 0, "out-of-core: target sample rows mined in memory under -sample-verify (0 = default 64Ki, negative disables)")
	chunkRows := fs.Int("chunk-rows", 0, "out-of-core: rows per ingest chunk (0 = default 64Ki)")
	memLimit := fs.String("mem-limit", "", "out-of-core: resident chunk-data budget, e.g. 64m or 2g (chunks beyond it spill to .pfdt files)")
	spillDir := fs.String("spill", "", "out-of-core: directory for spilled chunk snapshots (default: fresh temp dir)")
	sampleVerify := fs.Bool("sample-verify", false, "out-of-core: only verify candidates the sample surfaced (approximate, faster)")
	planInfo := fs.Bool("plan", false, "detect: print the ruleset's shared-evaluation plan (distinct cells, shared LHS groups, build time) to stderr before detecting")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "pfd: -in is required")
		usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	src, err := openInput(*in)
	if err != nil {
		fatal(err)
	}

	// Out-of-core discovery: chunked ingest, dictionary merge,
	// sample-then-verify — never materializes the input.
	oocMode := *oocFlag || *sample != 0 || *chunkRows > 0 || *memLimit != "" || *spillDir != "" || *sampleVerify
	if oocMode {
		if cmd != "discover" {
			fatal(fmt.Errorf("out-of-core flags apply to discover only"))
		}
		if *saveTable != "" {
			fatal(fmt.Errorf("-save-table would materialize the input; incompatible with out-of-core discovery"))
		}
		limit, err := parseBytes(*memLimit)
		if err != nil {
			fatal(err)
		}
		params := pfd.Params{MinSupport: *k, Delta: *delta, MinCoverage: *coverage, MaxLHS: *lhs, DisableGeneralize: *noGen}
		opts := []pfd.OOCOption{
			pfd.WithOOCParams(params),
			pfd.WithChunkRows(*chunkRows),
			pfd.WithSampleRows(*sample),
			pfd.WithMemLimit(limit),
			pfd.WithSpillDir(*spillDir),
		}
		if *sampleVerify {
			opts = append(opts, pfd.WithSampleVerify())
		}
		runDiscoverOOC(ctx, src, opts, *rulesPath, *jsonOut, *verbose)
		return
	}

	// The rule artifact: discover always mines it; the other
	// subcommands load it when -rules is given (one discovery pass,
	// many reuses) and mine it otherwise.
	var (
		table *pfd.Table
		rules *pfd.Ruleset
	)
	if cmd != "discover" && *rulesPath != "" {
		rs, err := pfd.LoadRulesetFile(*rulesPath)
		if err != nil {
			fatal(err)
		}
		if rs.Len() == 0 {
			fmt.Fprintf(os.Stderr, "pfd: %s holds no rules\n", *rulesPath)
			os.Exit(2)
		}
		t, err := pfd.ReadTable(ctx, src)
		if err != nil {
			fatal(err)
		}
		table, rules = t, rs
	} else {
		opts := []pfd.DiscoverOption{
			pfd.WithMinSupport(*k),
			pfd.WithDelta(*delta),
			pfd.WithMinCoverage(*coverage),
			pfd.WithMaxLHS(*lhs),
		}
		if *noGen {
			opts = append(opts, pfd.WithoutGeneralization())
		}
		if *verbose {
			opts = append(opts, pfd.WithDiscoverProgress(func(p pfd.DiscoveryProgress) {
				fmt.Fprintf(os.Stderr, "pfd: level %d/%d: %d candidates, %d dependencies\n",
					p.Level, p.MaxLevel, p.Candidates, p.Dependencies)
			}))
		}
		start := time.Now()
		disc, err := pfd.Discover(ctx, src, opts...)
		if err != nil {
			fatal(err)
		}
		table, rules = disc.Table(), disc.Ruleset()
		if cmd == "discover" {
			if *jsonOut {
				emitDiscoverReport(discoverReport{
					Name:         rules.Name,
					Rows:         table.NumRows(),
					Mode:         "in-memory",
					Dependencies: reportDeps(disc.Dependencies()),
				}, table.NumRows(), time.Since(start))
			} else {
				printDeps(disc.Dependencies())
			}
			notices := os.Stdout
			if *jsonOut {
				notices = os.Stderr
			}
			if *rulesPath != "" {
				if err := rules.WriteFile(*rulesPath); err != nil {
					fatal(err)
				}
				fmt.Fprintf(notices, "wrote %d rules -> %s\n", rules.Len(), *rulesPath)
			}
			if *saveTable != "" {
				if err := table.WriteSnapshotFile(*saveTable); err != nil {
					fatal(err)
				}
				fmt.Fprintf(notices, "wrote %d-row table snapshot -> %s\n", table.NumRows(), *saveTable)
			}
			return
		}
	}

	switch cmd {
	case "detect":
		if *planInfo {
			printPlan(rules)
		}
		runDetect(ctx, table, rules, *jsonOut)
	case "repair":
		if *out == "" {
			fatal(fmt.Errorf("repair requires -out"))
		}
		runRepair(ctx, table, rules, *out)
	case "score":
		if *truthPath == "" {
			fatal(fmt.Errorf("score requires -truth"))
		}
		runScore(ctx, table, rules, *truthPath)
	default:
		usage()
		os.Exit(2)
	}
}

// openInput builds the input source: a CSV file, a .pfdt snapshot, or
// — for out-of-core workloads — a comma-separated list or glob of
// .pfdt chunk files forming one relation.
func openInput(in string) (pfd.Source, error) {
	var paths []string
	if strings.Contains(in, ",") {
		paths = strings.Split(in, ",")
	} else if strings.ContainsAny(in, "*?[") {
		matches, err := filepath.Glob(in)
		if err != nil {
			return nil, fmt.Errorf("bad -in pattern %q: %w", in, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-in pattern %q matches no files", in)
		}
		paths = matches
	}
	if paths != nil {
		for _, p := range paths {
			if filepath.Ext(p) != ".pfdt" {
				return nil, fmt.Errorf("multi-file -in requires .pfdt chunks; got %q", p)
			}
		}
		name := strings.TrimSuffix(filepath.Base(paths[0]), filepath.Ext(paths[0]))
		// datagen chunk files are named <table>.c0000.pfdt; strip the
		// chunk ordinal so the relation keeps the table's name.
		if i := strings.LastIndex(name, ".c"); i > 0 {
			name = name[:i]
		}
		return pfd.FromSnapshotFiles(name, paths...), nil
	}
	name := strings.TrimSuffix(filepath.Base(in), filepath.Ext(in))
	// .pfdt snapshots (written by discover -save-table) load in one
	// sequential read — no CSV parsing, no re-interning.
	if filepath.Ext(in) == ".pfdt" {
		return pfd.FromSnapshotFile(name, in), nil
	}
	return pfd.FromCSVFile(name, in), nil
}

// parseBytes parses a human byte size: plain bytes, or a k/m/g suffix
// (optionally followed by "b" or "ib"), case-insensitive.
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	t := strings.ToLower(strings.TrimSpace(s))
	t = strings.TrimSuffix(t, "ib")
	t = strings.TrimSuffix(t, "b")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "k"):
		mult, t = 1<<10, strings.TrimSuffix(t, "k")
	case strings.HasSuffix(t, "m"):
		mult, t = 1<<20, strings.TrimSuffix(t, "m")
	case strings.HasSuffix(t, "g"):
		mult, t = 1<<30, strings.TrimSuffix(t, "g")
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad -mem-limit %q (want e.g. 67108864, 64m, 2g)", s)
	}
	return n * mult, nil
}

// discoverReport is the `pfd discover -json` envelope: the mined
// dependencies plus run telemetry (peak RSS, rows/s, and — out of
// core — chunking and spill volume).
type discoverReport struct {
	Format       string           `json:"format"`
	Version      int              `json:"version"`
	Name         string           `json:"name"`
	Rows         int              `json:"rows"`
	Mode         string           `json:"mode"`
	Dependencies []discoverDep    `json:"dependencies"`
	ElapsedMS    int64            `json:"elapsed_ms"`
	RowsPerSec   float64          `json:"rows_per_sec"`
	PeakRSSBytes int64            `json:"peak_rss_bytes"`
	Chunks       int              `json:"chunks,omitempty"`
	SpilledBytes int64            `json:"spilled_bytes,omitempty"`
	SampleRows   int              `json:"sample_rows,omitempty"`
	Health       []pfd.RuleHealth `json:"health,omitempty"`
}

type discoverDep struct {
	Embedded    string  `json:"embedded"`
	Variable    bool    `json:"variable"`
	Support     int     `json:"support"`
	Coverage    float64 `json:"coverage"`
	TableauRows int     `json:"tableau_rows"`
}

func reportDeps(deps []*pfd.Dependency) []discoverDep {
	out := make([]discoverDep, len(deps))
	for i, d := range deps {
		out[i] = discoverDep{
			Embedded: d.Embedded(), Variable: d.Variable,
			Support: d.Support, Coverage: d.Coverage,
			TableauRows: len(d.PFD.Tableau),
		}
	}
	return out
}

func emitDiscoverReport(rep discoverReport, rows int, elapsed time.Duration) {
	rep.Format = "pfd-discover-report"
	rep.Version = 1
	rep.ElapsedMS = elapsed.Milliseconds()
	if secs := elapsed.Seconds(); secs > 0 {
		rep.RowsPerSec = float64(rows) / secs
	}
	rep.PeakRSSBytes = metrics.PeakRSSBytes()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// runDiscoverOOC is the out-of-core discover path: chunked ingest with
// spilling, sample-then-verify, and a confirm pass for rule health.
func runDiscoverOOC(ctx context.Context, src pfd.Source, opts []pfd.OOCOption, rulesPath string, jsonOut, verbose bool) {
	start := time.Now()
	disc, err := pfd.DiscoverOutOfCore(ctx, src, opts...)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	st := disc.Stats()
	if verbose {
		fmt.Fprintf(os.Stderr, "pfd: %d rows in %d chunks (%d spilled, %d bytes); sample %d rows (stride %d); lattice %d candidates: %d bound-pruned, %d screened, %d evaluated in %d batches\n",
			st.Rows, st.Chunks, st.SpilledChunks, st.SpilledBytes,
			st.SampleRows, st.SampleStride,
			st.Candidates, st.PrunedByBound, st.ScreenedOut, st.Evaluated, st.Batches)
	}
	if jsonOut {
		emitDiscoverReport(discoverReport{
			Name:         disc.Ruleset().Name,
			Rows:         st.Rows,
			Mode:         "out-of-core",
			Dependencies: reportDeps(disc.Dependencies()),
			Chunks:       st.Chunks,
			SpilledBytes: st.SpilledBytes,
			SampleRows:   st.SampleRows,
			Health:       disc.Health(),
		}, st.Rows, elapsed)
	} else {
		printDeps(disc.Dependencies())
	}
	if rulesPath != "" {
		rules := disc.Ruleset()
		if err := rules.WriteFile(rulesPath); err != nil {
			fatal(err)
		}
		notices := os.Stdout
		if jsonOut {
			notices = os.Stderr
		}
		fmt.Fprintf(notices, "wrote %d rules -> %s\n", rules.Len(), rulesPath)
	}
}

func printDeps(deps []*pfd.Dependency) {
	if len(deps) == 0 {
		fmt.Println("no dependencies found")
		return
	}
	for _, d := range deps {
		kind := "constant"
		if d.Variable {
			kind = "variable"
		}
		fmt.Printf("%s  (%s, coverage %.1f%%, %d tableau rows)\n",
			d.Embedded(), kind, 100*d.Coverage, len(d.PFD.Tableau))
		for i, row := range d.PFD.Tableau {
			if i == 10 {
				fmt.Printf("    ... %d more rows\n", len(d.PFD.Tableau)-10)
				break
			}
			var parts []string
			for j, a := range d.LHS {
				parts = append(parts, fmt.Sprintf("%s = %s", a, row.LHS[j]))
			}
			fmt.Printf("    [%s] -> [%s = %s]\n", strings.Join(parts, ", "), d.RHS, row.RHS)
		}
	}
}

// printPlan reports how the ruleset factors under the shared-evaluation
// planner — the CLI counterpart of the service's /plan debug view. It
// writes to stderr so `-json` output on stdout stays machine-clean.
func printPlan(rules *pfd.Ruleset) {
	d := rules.Plan()
	fmt.Fprintf(os.Stderr,
		"plan: %d rules, %d tableau rows -> %d distinct cells, %d LHS groups (%d shared), built in %.1fµs\n",
		d.Rules, d.TableauRows, d.DistinctCells, d.Groups, d.SharedGroups, d.BuildMicros)
	for _, g := range d.GroupDetail {
		if g.Members < 2 {
			continue
		}
		fmt.Fprintf(os.Stderr, "plan: group [%s] = [%s] serves %d tableau rows across %d rules\n",
			strings.Join(g.Columns, ", "), strings.Join(g.Cells, ", "), g.Members, g.Rules)
	}
	if d.TruncatedGroups > 0 {
		fmt.Fprintf(os.Stderr, "plan: (%d more groups not shown)\n", d.TruncatedGroups)
	}
}

func detect(ctx context.Context, table *pfd.Table, rules *pfd.Ruleset) *pfd.Detection {
	det, err := rules.Detect(ctx, pfd.FromTable(table))
	var missing *pfd.MissingColumnError
	if errors.As(err, &missing) {
		// The rules do not fit the input: a usage error, like a bad
		// flag.
		exit(2, err)
	}
	if err != nil {
		fatal(err)
	}
	return det
}

func runDetect(ctx context.Context, table *pfd.Table, rules *pfd.Ruleset, jsonOut bool) {
	det := detect(ctx, table, rules)
	if jsonOut {
		// Batch detection speaks the same versioned report envelope as
		// `pfdstream -json` and the pfdserved read endpoints; a batch
		// run has no warmup phase, so every row is live.
		rep := pfd.NewReport(rules.Name)
		rep.Rows = table.NumRows()
		rep.LiveRows = table.NumRows()
		rep.LiveViolations = len(det.Findings())
		for _, f := range det.Findings() {
			rep.Violations = append(rep.Violations, pfd.ReportFinding{
				Row:      f.Cell.Row,
				Column:   f.Cell.Col,
				Expected: f.Proposed,
				PFD:      f.By.Embedded(),
			})
		}
		rep.Sort()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if len(det.Findings()) == 0 {
		fmt.Println("no violations found")
		return
	}
	for f := range det.All() {
		repairNote := "no repair proposed"
		if f.Proposed != "" {
			repairNote = fmt.Sprintf("should be %q", f.Proposed)
		}
		fmt.Printf("%s: %q %s  (violates %s)\n", f.Cell, f.Observed, repairNote, f.By.Embedded())
	}
	fmt.Printf("%d suspect cells\n", len(det.Findings()))
}

func runRepair(ctx context.Context, table *pfd.Table, rules *pfd.Ruleset, out string) {
	fixed, n := detect(ctx, table, rules).Repair()
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fixed.WriteCSV(f); err != nil {
		fatal(err)
	}
	fmt.Printf("repaired %d cells -> %s\n", n, out)
}

// runScore evaluates the rules and detection against a truth sidecar.
func runScore(ctx context.Context, table *pfd.Table, rules *pfd.Ruleset, truthPath string) {
	f, err := os.Open(truthPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	truth, err := datagen.ReadTruth(f)
	if err != nil {
		fatal(err)
	}

	var discovered []string
	for p := range rules.All() {
		discovered = append(discovered, p.Embedded())
	}
	pr := metrics.SetPR(discovered, truth.DepKeys())
	fmt.Printf("discovery: %d dependencies, %s vs %d ground-truth deps\n",
		len(discovered), pr, len(truth.Deps))

	det := detect(ctx, table, rules)
	tp, goodRepairs := 0, 0
	for fd := range det.All() {
		cell := relation.Cell{Row: fd.Cell.Row, Col: fd.Cell.Col}
		if want, ok := truth.Errors[cell]; ok {
			tp++
			if fd.Proposed == want {
				goodRepairs++
			}
		}
	}
	findings := det.Findings()
	prec, rec := 0.0, 1.0
	if len(findings) > 0 {
		prec = float64(tp) / float64(len(findings))
	}
	if len(truth.Errors) > 0 {
		rec = float64(tp) / float64(len(truth.Errors))
	}
	fmt.Printf("detection: %d findings, P=%.1f%% R=%.1f%% over %d seeded errors; %d repairs match ground truth\n",
		len(findings), 100*prec, 100*rec, len(truth.Errors), goodRepairs)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pfd discover -in data.csv [-rules r.pfd] [-save-table data.pfdt] [-k 5] [-delta 0.05] [-coverage 0.10] [-lhs 1] [-nogeneralize] [-json] [-v]
  pfd discover -in 'chunks/*.pfdt' [-sample N] [-chunk-rows M] [-mem-limit 64m] [-spill DIR] [-sample-verify] [flags]
  pfd detect   -in data.csv [-rules r.pfd] [-json] [-plan] [flags]
  pfd repair   -in data.csv -out fixed.csv [-rules r.pfd] [flags]
  pfd score    -in data.csv -truth data.truth.csv [-rules r.pfd] [flags]

-rules is the shared artifact: discover writes it, the others load it
instead of re-mining (the same file feeds pfdstream and pfdinfer).
-in also accepts a .pfdt binary snapshot written by discover
-save-table (one sequential read instead of CSV parsing), and — for
discover — a comma list or glob of .pfdt chunk files mined out of
core under -mem-limit without ever materializing the relation.`)
}

func fatal(err error) { exit(1, err) }

// exit prints err's one stderr line and exits with code.
func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, errLine(err))
	os.Exit(code)
}

// errLine renders err with exactly one "pfd:" prefix: the library's
// typed errors already carry it, the command's own errors do not.
func errLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "pfd: ") {
		return msg
	}
	return "pfd: " + msg
}
