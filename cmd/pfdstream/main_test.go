package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pfd"
	ipfd "pfd/internal/pfd"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMain runs the command itself instead of the tests when
// PFDSTREAM_RUN_MAIN is set, so a test can drive pfdstream as a
// subprocess of the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("PFDSTREAM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDefaultRunsAgree pins that pfdstream numbers rows in input order
// by default: two default runs over the same stream print identical
// findings.
func TestDefaultRunsAgree(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte(`Zip([zip = (\D{3})\D{2}] -> [city = _])`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Colliding zip-prefix groups with 10% wrong cities: which tuple of
	// a group is the minority depends on the order the rows are folded.
	var csv strings.Builder
	csv.WriteString("zip,city\n")
	r := rand.New(rand.NewSource(29))
	zones := [][2]string{{"900", "Los Angeles"}, {"606", "Chicago"}, {"100", "New York"}, {"331", "Miami"}}
	for i := 0; i < 20000; i++ {
		z := zones[r.Intn(len(zones))]
		city := z[1]
		if r.Intn(10) == 0 {
			city = zones[r.Intn(len(zones))][1]
		}
		fmt.Fprintf(&csv, "%s%02d,%s\n", z[0], r.Intn(100), city)
	}
	in := filepath.Join(dir, "stream.csv")
	if err := os.WriteFile(in, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(extra ...string) string {
		t.Helper()
		cmd := exec.Command(os.Args[0], append([]string{"-rules", rules, "-in", in}, extra...)...)
		cmd.Env = append(os.Environ(), "PFDSTREAM_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("pfdstream %v: err = %v, want exit status 1 (violations found)\n%s", extra, err, stderr.String())
		}
		return stdout.String()
	}
	first := run()
	if strings.Count(first, "\n") < 100 {
		t.Fatalf("default run printed %d findings; test is vacuous", strings.Count(first, "\n"))
	}
	if second := run(); second != first {
		t.Fatal("two default runs printed different findings")
	}
}

// TestReportGolden pins the -json report shape: a validation run with
// fixed rules, fixed stream, and fixed elapsed time must marshal
// byte-identically to the committed golden file (buildReport sorts the
// handler-collected findings into the report's order), and its findings
// must equal the sequential reference Checker's.
func TestReportGolden(t *testing.T) {
	rules := pfd.NewRuleset("golden",
		pfd.MustParsePFD(`Zip([zip = (\D{3})\D{2}] -> [city = _])`),
	)
	warm := pfd.NewTable("ref", "zip", "city")
	for i := 0; i < 6; i++ {
		warm.Append("90001", "Los Angeles")
		warm.Append("60601", "Chicago")
	}
	live := pfd.NewTable("live", "zip", "city")
	live.Append("90002", "Los Angeles")
	live.Append("90003", "Chicag") // violates the 900xx consensus
	live.Append("60602", "Chicago")

	// Collect live findings through the handler, as main does (the
	// engine log stays disabled in every mode).
	var findings []pfd.ReportFinding
	val, err := rules.Validate(context.Background(), pfd.FromTable(live),
		pfd.WithoutViolationLog(),
		pfd.WithWarmup(pfd.FromTable(warm)),
		pfd.WithViolationHandler(func(v pfd.StreamViolation) {
			if v.NewTuple {
				findings = append(findings, pfd.FindingOf(v, 12))
			}
		}))
	if err != nil {
		t.Fatal(err)
	}

	rep := buildReport("golden", val, 250*time.Millisecond, 3, findings)
	if got, want := fmt.Sprint(rep.Violations), fmt.Sprint(checkerFindings(t, rules, warm, live)); got != want {
		t.Errorf("engine findings %s, reference Checker %s", got, want)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	goldenPath := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/pfdstream -update` to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("report drifted from %s:\n got:\n%s\nwant:\n%s", goldenPath, got, want)
	}
}

// TestReportCountsConsistent checks the derived fields against the
// validation they summarize.
func TestReportCountsConsistent(t *testing.T) {
	rules := pfd.NewRuleset("counts",
		pfd.MustParsePFD(`Zip([zip = (\D{3})\D{2}] -> [city = _])`),
	)
	live := pfd.NewTable("live", "zip", "city")
	for i := 0; i < 8; i++ {
		live.Append("90001", "Los Angeles")
	}
	live.Append("90002", "LA?") // minority against the consensus

	var findings []pfd.ReportFinding
	val, err := rules.Validate(context.Background(), pfd.FromTable(live),
		pfd.WithoutViolationLog(),
		pfd.WithViolationHandler(func(v pfd.StreamViolation) {
			if v.NewTuple {
				findings = append(findings, pfd.FindingOf(v, 0))
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport("counts", val, time.Second, 0, findings)
	if rep.Rows != 9 || rep.WarmRows != 0 || rep.LiveRows != 9 {
		t.Errorf("row counts: %+v", rep)
	}
	if rep.LiveViolations != len(rep.Violations) || rep.LiveViolations == 0 {
		t.Errorf("violation counts: %+v", rep)
	}
	if rep.TuplesPerSec != 9 {
		t.Errorf("TuplesPerSec = %v, want 9", rep.TuplesPerSec)
	}
}

// checkerFindings runs the sequential reference Checker over warm then
// live and returns the live tuples' findings in report order, with
// rows numbered from the first live tuple as the report numbers them.
func checkerFindings(t *testing.T, rules *pfd.Ruleset, warm, live *pfd.Table) []pfd.ReportFinding {
	t.Helper()
	c := ipfd.NewChecker(rules.PFDs)
	var out []pfd.ReportFinding
	for _, tbl := range []*pfd.Table{warm, live} {
		for i := 0; i < tbl.NumRows(); i++ {
			tuple := make(pfd.Tuple, len(tbl.Cols))
			for j, col := range tbl.Cols {
				tuple[col] = tbl.At(i, j)
			}
			vs, err := c.CheckNext(tuple)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				if v.NewTuple && tbl == live {
					out = append(out, pfd.FindingOf(v, warm.NumRows()))
				}
			}
		}
	}
	rep := pfd.NewReport("checker")
	rep.Violations = out
	rep.Sort()
	return rep.Violations
}
