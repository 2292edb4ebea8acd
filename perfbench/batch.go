package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pfd"
	"pfd/internal/relation"
)

const (
	// batchScale is the fraction of Table 7's row counts the batch
	// workload draws: ~28k rows over T1–T15, about one second per pass
	// on a 2-vCPU machine, so a run holds a dozen passes.
	batchScale = 0.1
	batchDirt  = 0.01
	// batchReads is how many times the child reads the 15 CSVs;
	// setup_s is the median. A read of one table takes about a
	// millisecond, so read_p50_ms needs many of them to hold still.
	batchReads = 45
	// minPasses holds enough per-table samples for a p90 with ten
	// beyond it (15 tables × 7 passes = 105).
	minPasses = 7
)

// tableDigest pins one table's pipeline output.
type tableDigest struct {
	ID       string `json:"id"`
	Input    string `json:"input"`    // SHA-256 of the input CSV
	Ruleset  string `json:"ruleset"`  // SHA-256 of the discovered ruleset text
	Findings string `json:"findings"` // SHA-256 of the sorted findings
	Repaired string `json:"repaired"` // SHA-256 of the repaired CSV
}

// batchReport is what the batch child process prints.
type batchReport struct {
	ReadMS        [][]float64   `json:"read_ms"`    // per read: per table
	Discover      [][]float64   `json:"discover_s"` // per pass: per table
	Detect        [][]float64   `json:"detect_s"`
	Repair        [][]float64   `json:"repair_s"`
	Rows          int           `json:"rows"`
	Digests       []tableDigest `json:"digests"`
	Deterministic bool          `json:"deterministic"`
	PlannerAgrees bool          `json:"planner_agrees"`
	PeakRSSMB     float64       `json:"peak_rss_mb"`
}

// runBatch is the batch-paper workload: it writes the 15 dirty tables
// as CSV, then runs the pipeline in a child process of its own, so the
// child's peak RSS is the pipeline's alone.
func runBatch(ctx context.Context, tables []*relation.Table, o runOpts) (*runResult, error) {
	dir := filepath.Join(o.work, "tables")
	if err := writeBatchInputs(tables, dir); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, o.self, "-role", "batch", "-dir", dir, "-seconds", strconv.Itoa(o.seconds))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("batch child: %w", err)
	}
	var rep batchReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("batch child output: %w", err)
	}
	c := &checks{}
	c.expect(rep.Deterministic, "batch passes disagree on their outputs")
	c.expect(rep.PlannerAgrees, "planned detection differs from independent per-rule detection")
	checkGolden(rep.Digests, c)
	r := batchResult(&rep, c)
	r.digests = rep.Digests
	return r, nil
}

func writeBatchInputs(tables []*relation.Table, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		var b bytes.Buffer
		if err := t.WriteCSV(&b); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, t.Name+".csv"), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// batchResult turns the child's report into the benchmark's output.
// The batch workload must print every end-to-end metric, so the ingest
// ones read as the pipeline's: rows_per_s is input rows per second of
// pass time, a table's ack latency is its discover → detect → repair
// time, and a read is one table's CSV read.
func batchResult(rep *batchReport, c *checks) *runResult {
	r := newRunResult()
	var setup, reads, disc, det, rep2, pass, perTable []float64
	for _, rd := range rep.ReadMS {
		var sum float64
		for _, ms := range rd {
			sum += ms
		}
		reads = append(reads, rd...)
		setup = append(setup, sum/1e3)
	}
	for p := range rep.Discover {
		var d, e, f float64
		for i := range rep.Discover[p] {
			d += rep.Discover[p][i]
			e += rep.Detect[p][i]
			f += rep.Repair[p][i]
			perTable = append(perTable, 1e3*(rep.Discover[p][i]+rep.Detect[p][i]+rep.Repair[p][i]))
		}
		disc, det, rep2, pass = append(disc, d), append(det, e), append(rep2, f), append(pass, d+e+f)
	}
	tables := len(rep.Digests)
	r.attempted = tables*len(pass) + c.attempted
	r.failed = len(c.failures)
	r.failures = c.failures
	lat := sortedCopy(perTable)
	readLat := sortedCopy(reads)
	r.set("setup_s", median(setup), "s", len(setup))
	r.set("rows_per_s", float64(rep.Rows)/median(pass), "1/s", len(pass))
	r.pct("ack_p50_ms", lat, 50)
	r.pct("ack_p90_ms", lat, 90)
	r.pct("read_p50_ms", readLat, 50)
	r.set("discover_s", median(disc), "s", len(disc))
	r.set("detect_s", median(det), "s", len(det))
	r.set("repair_s", median(rep2), "s", len(rep2))
	r.set("peak_rss_mb", rep.PeakRSSMB, "MB", 1)
	r.note("table pipeline", lat)
	r.note("table read", readLat)
	return r
}

// batchChild is the batch workload's process under test: read the 15
// CSVs batchReads times, then run discover → detect → repair over every
// table, pass after pass, until seconds have elapsed.
func batchChild(ctx context.Context, dir string, seconds int) error {
	specs := batchTables()
	rep := batchReport{Deterministic: true, PlannerAgrees: true}
	var tables []*relation.Table
	for k := 0; k < batchReads; k++ {
		tables = tables[:0]
		runtime.GC() // drop the previous read's tables before timing the next
		var ms []float64
		for _, ts := range specs {
			start := time.Now()
			t, err := pfd.ReadTable(ctx, pfd.FromCSVFile(ts.id, filepath.Join(dir, ts.id+".csv")))
			if err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
			tables = append(tables, t)
		}
		rep.ReadMS = append(rep.ReadMS, ms)
	}
	for _, t := range tables {
		rep.Rows += t.NumRows()
	}
	inputs := make([]string, len(tables))
	for i, t := range tables {
		inputs[i] = csvDigest(t)
	}

	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for p := 0; p < minPasses || time.Now().Before(deadline); p++ {
		var d, e, f []float64
		for i, t := range tables {
			in := t.Clone()
			t0 := time.Now()
			disc, err := pfd.Discover(ctx, pfd.FromTable(in))
			if err != nil {
				return err
			}
			t1 := time.Now()
			det, err := pfd.Detect(ctx, pfd.FromTable(in), disc.PFDs())
			if err != nil {
				return err
			}
			t2 := time.Now()
			res, err := pfd.RepairToFixpoint(ctx, pfd.FromTable(in), disc.PFDs())
			if err != nil {
				return err
			}
			t3 := time.Now()
			d, e, f = append(d, t1.Sub(t0).Seconds()), append(e, t2.Sub(t1).Seconds()), append(f, t3.Sub(t2).Seconds())

			dg := tableDigest{ID: t.Name, Input: inputs[i], Ruleset: rulesetDigest(disc.Ruleset()),
				Findings: findingsDigest(det.Findings()), Repaired: csvDigest(res.Table())}
			if p == 0 {
				rep.Digests = append(rep.Digests, dg)
				indep, err := pfd.Detect(ctx, pfd.FromTable(in), disc.PFDs(), pfd.WithoutSharedPlan())
				if err != nil {
					return err
				}
				rep.PlannerAgrees = rep.PlannerAgrees && findingsDigest(indep.Findings()) == dg.Findings
			} else if rep.Digests[i] != dg {
				rep.Deterministic = false
			}
		}
		rep.Discover, rep.Detect, rep.Repair = append(rep.Discover, d), append(rep.Detect, e), append(rep.Repair, f)
	}
	var err error
	if rep.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func csvDigest(t *relation.Table) string {
	var b bytes.Buffer
	if err := t.WriteCSV(&b); err != nil {
		return "error: " + err.Error()
	}
	return sha(b.Bytes())
}

func rulesetDigest(rs *pfd.Ruleset) string {
	var b strings.Builder
	if _, err := rs.WriteTo(&b); err != nil {
		return "error: " + err.Error()
	}
	return sha([]byte(b.String()))
}

// findingsDigest hashes the findings in their returned (sorted) order.
func findingsDigest(fs []pfd.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s\t%q\t%q\t%q\t%s\t%d\n", f.Cell, f.Observed, f.Proposed, f.Expected, f.By, f.TableauRow)
	}
	return sha([]byte(b.String()))
}
