package pfd_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pfd"
	"pfd/internal/datagen"
	"pfd/internal/discovery"
	ipfd "pfd/internal/pfd"
	"pfd/internal/repair"
	"pfd/internal/stream"
)

// table7Workload builds one of the paper's Table 7 evaluation tables
// at test scale with seeded dirt.
func table7Workload(t *testing.T, id string) *pfd.Table {
	t.Helper()
	spec, ok := datagen.SpecByID(id)
	if !ok {
		t.Fatalf("no datagen spec %q", id)
	}
	tbl, _ := spec.Build(1200, 7, 0.02)
	return tbl
}

// TestV2MatchesV1OnTable7Workloads pins the public entry points
// against the internals they wrap on Table 7 workloads: byte-identical
// dependencies (discovery.Discover), findings (repair.Detect), and
// streaming violations (the sequential reference Checker) — the
// acceptance bar for the API surface (same algorithms underneath,
// different surface).
func TestV2MatchesV1OnTable7Workloads(t *testing.T) {
	ctx := context.Background()
	for _, id := range []string{"T1", "T5", "T13"} {
		t.Run(id, func(t *testing.T) {
			tbl := table7Workload(t, id)

			// Discovery: the internal algorithm vs Discover over a
			// TableSource.
			v1 := discovery.Discover(tbl, pfd.DefaultParams())
			v2, err := pfd.Discover(ctx, pfd.FromTable(tbl))
			if err != nil {
				t.Fatalf("v2 Discover: %v", err)
			}
			if got, want := dumpDeps(v2.Dependencies()), dumpDeps(v1.Dependencies); got != want {
				t.Fatalf("dependencies differ:\nv2:\n%s\nv1:\n%s", got, want)
			}

			// Detection: byte-identical findings.
			pfds := v2.PFDs()
			v1f := repair.Detect(tbl, pfds)
			v2d, err := pfd.Detect(ctx, pfd.FromTable(tbl), pfds)
			if err != nil {
				t.Fatalf("v2 Detect: %v", err)
			}
			if got, want := dumpFindings(v2d.Findings()), dumpFindings(v1f); got != want {
				t.Fatalf("findings differ:\nv2:\n%s\nv1:\n%s", got, want)
			}

			// Streaming validation: Validate vs a reference Checker
			// loop, identically sorted.
			checker := ipfd.NewChecker(pfds)
			var v1vs []pfd.StreamViolation
			for i := 0; i < tbl.NumRows(); i++ {
				tuple := make(pfd.Tuple, len(tbl.Cols))
				for j, c := range tbl.Cols {
					tuple[c] = tbl.At(i, j)
				}
				vs, err := checker.CheckNext(tuple)
				if err != nil {
					t.Fatalf("CheckNext: %v", err)
				}
				v1vs = append(v1vs, vs...)
			}
			idx := make(map[*pfd.PFD]int, len(pfds))
			for i, p := range pfds {
				idx[p] = i
			}
			stream.SortViolations(v1vs, idx)
			want := dumpViolations(v1vs, idx)

			val, err := pfd.Validate(ctx, pfd.FromTable(tbl), pfds)
			if err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if val.Rows() != tbl.NumRows() {
				t.Errorf("Validate rows = %d, want %d", val.Rows(), tbl.NumRows())
			}
			if got := dumpViolations(val.Violations(), idx); got != want {
				t.Errorf("Validate violations differ from the reference Checker:\nv2:\n%s\nv1:\n%s", got, want)
			}
		})
	}
}

func dumpDeps(deps []*pfd.Dependency) string {
	var b strings.Builder
	for _, d := range deps {
		fmt.Fprintf(&b, "%s|%v|%.6f|%d|%s\n", d.Embedded(), d.Variable, d.Coverage, d.Support, d.PFD)
	}
	return b.String()
}

func dumpFindings(fs []pfd.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%d\n", f.Cell, f.Observed, f.Proposed, f.Expected, f.By.Embedded(), f.TableauRow)
	}
	return b.String()
}

func dumpViolations(vs []pfd.StreamViolation, idx map[*pfd.PFD]int) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%s|%d|%d|%s|%v\n", v.Cell, idx[v.PFD], v.TableauRow, v.Expected, v.NewTuple)
	}
	return b.String()
}

// TestSourceUnification feeds the same relation through a CSV source
// and a table source and requires identical v2 detection output.
func TestSourceUnification(t *testing.T) {
	ctx := context.Background()
	tbl := table7Workload(t, "T5")
	var csvBuf strings.Builder
	if err := tbl.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}

	fromTable, err := pfd.Discover(ctx, pfd.FromTable(tbl))
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := pfd.Discover(ctx, pfd.FromCSV(tbl.Name, strings.NewReader(csvBuf.String())))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dumpDeps(fromCSV.Dependencies()), dumpDeps(fromTable.Dependencies()); got != want {
		t.Fatalf("CSV-source discovery differs from table-source:\ncsv:\n%s\ntable:\n%s", got, want)
	}
	if fromCSV.Table().NumRows() != tbl.NumRows() {
		t.Errorf("materialized rows = %d, want %d", fromCSV.Table().NumRows(), tbl.NumRows())
	}
}

// TestDiscoverCancellation cancels a two-level discovery at the
// level-1 boundary (deterministically, from the progress callback) and
// requires a typed *CanceledError that unwraps to context.Canceled.
func TestDiscoverCancellation(t *testing.T) {
	tbl := table7Workload(t, "T5")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	levels := 0
	_, err := pfd.Discover(ctx, pfd.FromTable(tbl),
		pfd.WithMaxLHS(2),
		pfd.WithDiscoverProgress(func(p pfd.DiscoveryProgress) {
			levels++
			cancel()
		}))
	var ce *pfd.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *pfd.CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must unwrap to context.Canceled", err)
	}
	if ce.Op != "discover" {
		t.Errorf("Op = %q, want discover", ce.Op)
	}
	if levels != 1 {
		t.Errorf("progress callbacks = %d, want 1 (level 2 must not run)", levels)
	}
}

// TestValidateCancellation cancels a Validate over a never-closing
// channel source mid-stream and requires a prompt typed return — the
// promptness contract for the streaming path, exercised under -race in
// CI.
func TestValidateCancellation(t *testing.T) {
	psi, err := pfd.NewPFD("Zip", []string{"zip"}, "state",
		pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(\D{3})\D{2}`))},
			RHS: pfd.Wildcard(),
		},
	)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("single-producer", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		feed := make(chan pfd.Tuple) // never closed
		go func() {
			for i := 0; ; i++ {
				select {
				case feed <- pfd.Tuple{"zip": fmt.Sprintf("%05d", i%1000), "state": "CA"}:
				case <-ctx.Done():
					return
				}
			}
		}()
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()

		done := make(chan struct{})
		var valErr error
		go func() {
			defer close(done)
			_, valErr = pfd.Validate(ctx,
				pfd.FromTuples("live", []string{"zip", "state"}, feed),
				[]*pfd.PFD{psi})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Validate did not return promptly after cancellation")
		}
		var ce *pfd.CanceledError
		if !errors.As(valErr, &ce) || !errors.Is(valErr, context.Canceled) {
			t.Fatalf("err = %v, want *CanceledError unwrapping context.Canceled", valErr)
		}
		if ce.Op != "validate" {
			t.Errorf("Op = %q, want validate", ce.Op)
		}
	})
}

// TestValidateWarmupSplit pins the warm/live accounting and handler
// suppression during warm replay.
func TestValidateWarmupSplit(t *testing.T) {
	ref := pfd.NewTable("Zip", "zip", "state")
	for i := 0; i < 20; i++ {
		ref.Append(fmt.Sprintf("900%02d", i), "CA")
	}
	psi, err := pfd.NewPFD("Zip", []string{"zip"}, "state",
		pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(\D{3})\D{2}`))},
			RHS: pfd.Wildcard(),
		},
	)
	if err != nil {
		t.Fatal(err)
	}

	live := pfd.NewTable("Zip", "zip", "state")
	live.Append("90091", "CA")
	live.Append("90092", "WA") // deviates from the warm consensus
	handled := 0
	val, err := pfd.Validate(context.Background(), pfd.FromTable(live), []*pfd.PFD{psi},
		pfd.WithWarmup(pfd.FromTable(ref)),
		pfd.WithViolationHandler(func(v pfd.StreamViolation) { handled++ }))
	if err != nil {
		t.Fatal(err)
	}
	if val.WarmRows() != 20 || val.LiveRows() != 2 || val.Rows() != 22 {
		t.Fatalf("rows split = warm %d live %d total %d", val.WarmRows(), val.LiveRows(), val.Rows())
	}
	var liveViolations []pfd.StreamViolation
	for v := range val.Live() {
		liveViolations = append(liveViolations, v)
	}
	if len(liveViolations) != 1 || liveViolations[0].Cell.Row != 21 || liveViolations[0].Expected != "CA" {
		t.Fatalf("live violations = %+v, want exactly the WA deviation at row 21", liveViolations)
	}
	if handled != 1 {
		t.Errorf("handler invocations = %d, want 1 (warm replay suppressed)", handled)
	}
}

// TestRepairToFixpointV2 pins the public fixpoint repair against the
// internal holistic loop it wraps.
func TestRepairToFixpointV2(t *testing.T) {
	ctx := context.Background()
	tbl := table7Workload(t, "T5")
	disc, err := pfd.Discover(ctx, pfd.FromTable(tbl))
	if err != nil {
		t.Fatal(err)
	}
	v1 := repair.Holistic(tbl, disc.PFDs(), repair.HolisticOptions{MaxRounds: 3})
	v2, err := pfd.RepairToFixpoint(ctx, pfd.FromTable(tbl), disc.PFDs(), pfd.WithMaxRounds(3))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Rounds() != v1.Rounds || v2.Repaired() != v1.Repaired {
		t.Fatalf("v2 rounds/repaired = %d/%d, v1 = %d/%d", v2.Rounds(), v2.Repaired(), v1.Rounds, v1.Repaired)
	}
	var a, b strings.Builder
	if err := v1.Table.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := v2.Table().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repaired tables differ between v1 and v2")
	}
}

// TestValidateSourceParseError requires malformed live input to
// surface as a typed *ParseError, not a silent skip.
func TestValidateSourceParseError(t *testing.T) {
	psi, err := pfd.NewPFD("Zip", []string{"zip"}, "state",
		pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(\D{3})\D{2}`))},
			RHS: pfd.Wildcard(),
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	in := "zip,state\n90001,CA\n90002\n" // jagged record
	_, verr := pfd.Validate(context.Background(),
		pfd.FromCSV("stream", strings.NewReader(in)), []*pfd.PFD{psi})
	var pe *pfd.ParseError
	if !errors.As(verr, &pe) {
		t.Fatalf("err = %v, want *ParseError", verr)
	}
	if pe.Record != 3 {
		t.Errorf("Record = %d, want 3", pe.Record)
	}
}

// TestDetectMissingColumn requires batch detection and repair to
// refuse a rule naming a column the input lacks with the typed
// *MissingColumnError, on the planner and without it.
func TestDetectMissingColumn(t *testing.T) {
	rule := pfd.MustParsePFD(`d([zip = (900)\D{2}] -> [state = _])`)
	src := func() pfd.Source {
		return pfd.FromCSV("d", strings.NewReader("zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n"))
	}
	for _, opts := range [][]pfd.DetectOption{nil, {pfd.WithoutSharedPlan()}} {
		_, err := pfd.Detect(context.Background(), src(), []*pfd.PFD{rule}, opts...)
		var mce *pfd.MissingColumnError
		if !errors.As(err, &mce) || mce.Column != "state" {
			t.Fatalf("Detect err = %v, want *MissingColumnError for state", err)
		}
	}
	_, err := pfd.RepairToFixpoint(context.Background(), src(), []*pfd.PFD{rule})
	var mce *pfd.MissingColumnError
	if !errors.As(err, &mce) || mce.Column != "state" {
		t.Fatalf("RepairToFixpoint err = %v, want *MissingColumnError for state", err)
	}
}

// TestValidateMissingColumn requires a tuple lacking a referenced
// column to surface as the typed *MissingColumnError.
func TestValidateMissingColumn(t *testing.T) {
	psi, err := pfd.NewPFD("Zip", []string{"zip"}, "state",
		pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(\D{3})\D{2}`))},
			RHS: pfd.Wildcard(),
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// JSONL with a null state: the key is treated as absent.
	in := `{"zip":"90001","state":"CA"}` + "\n" + `{"zip":"90002","state":null}` + "\n"
	_, verr := pfd.Validate(context.Background(),
		pfd.FromJSONL("stream", strings.NewReader(in)), []*pfd.PFD{psi})
	var mce *pfd.MissingColumnError
	if !errors.As(verr, &mce) {
		t.Fatalf("err = %v, want *MissingColumnError", verr)
	}
	if mce.Column != "state" {
		t.Errorf("Column = %q, want state", mce.Column)
	}
}
