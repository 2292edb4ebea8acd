package repair

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

func zipTable() *relation.Table {
	t := relation.New("Zip", "zip", "city")
	t.Append("90001", "Los Angeles")
	t.Append("90002", "Los Angeles")
	t.Append("90003", "Los Angeles")
	t.Append("90004", "New York") // seeded error
	return t
}

func constPFD() *pfd.PFD {
	return pfd.MustNew("Zip", []string{"zip"}, "city",
		pfd.Row{LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(900)\D{2}`))}, RHS: pfd.Pat(pattern.Constant("Los Angeles"))},
	)
}

func varPFD() *pfd.PFD {
	return pfd.MustNew("Zip", []string{"zip"}, "city",
		pfd.Row{LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{3})\D{2}`))}, RHS: pfd.Wildcard()},
	)
}

func TestDetectConstant(t *testing.T) {
	tb := zipTable()
	fs := Detect(tb, []*pfd.PFD{constPFD()})
	if len(fs) != 1 {
		t.Fatalf("findings = %+v", fs)
	}
	f := fs[0]
	if f.Cell != (relation.Cell{Row: 3, Col: "city"}) || f.Observed != "New York" {
		t.Errorf("finding = %+v", f)
	}
	if f.Proposed != "Los Angeles" {
		t.Errorf("Proposed = %q, want constant repair", f.Proposed)
	}
	if f.By == nil || f.TableauRow != 0 {
		t.Errorf("explainability fields missing: %+v", f)
	}
}

func TestDetectVariableUsesWitness(t *testing.T) {
	tb := zipTable()
	fs := Detect(tb, []*pfd.PFD{varPFD()})
	if len(fs) != 1 {
		t.Fatalf("findings = %+v", fs)
	}
	if fs[0].Proposed != "Los Angeles" {
		t.Errorf("witness repair = %q", fs[0].Proposed)
	}
}

func TestDetectDeduplicatesAcrossPFDs(t *testing.T) {
	tb := zipTable()
	fs := Detect(tb, []*pfd.PFD{constPFD(), varPFD()})
	if len(fs) != 1 {
		t.Errorf("same cell flagged %d times", len(fs))
	}
}

func TestDetectSkipsTies(t *testing.T) {
	tb := relation.New("Zip", "zip", "city")
	tb.Append("90001", "Los Angeles")
	tb.Append("90002", "San Diego") // 1-1 tie within prefix 900
	fs := Detect(tb, []*pfd.PFD{varPFD()})
	if len(fs) != 0 {
		t.Errorf("tie group must yield no findings: %+v", fs)
	}
}

func TestApply(t *testing.T) {
	tb := zipTable()
	fs := Detect(tb, []*pfd.PFD{constPFD()})
	fixed, n := Apply(tb, fs)
	if n != 1 {
		t.Fatalf("applied %d repairs", n)
	}
	if fixed.Value(3, "city") != "Los Angeles" {
		t.Error("repair not applied")
	}
	if tb.Value(3, "city") != "New York" {
		t.Error("Apply must not mutate the input table")
	}
	if !constPFD().Satisfied(fixed) {
		t.Error("repaired table must satisfy the PFD")
	}
}

func TestScore(t *testing.T) {
	tb := zipTable()
	fs := Detect(tb, []*pfd.PFD{constPFD()})
	truth := map[relation.Cell]string{
		{Row: 3, Col: "city"}: "Los Angeles",
	}
	p, r, fixes := Score(fs, truth)
	if p != 1 || r != 1 || fixes != 1 {
		t.Errorf("score = %v %v %v", p, r, fixes)
	}
	// A spurious finding drops precision; a missed error drops recall.
	truth[relation.Cell{Row: 0, Col: "zip"}] = "90009"
	p, r, _ = Score(fs, truth)
	if r != 0.5 || p != 1 {
		t.Errorf("score with missed error = %v %v", p, r)
	}
	p, r, _ = Score(nil, truth)
	if p != 0 || r != 0 {
		t.Errorf("empty findings score = %v %v", p, r)
	}
	p, r, _ = Score(nil, nil)
	if p != 1 || r != 1 {
		t.Errorf("empty-empty score = %v %v", p, r)
	}
}

// TestDetectContextCancel pins the cancellation contract on the
// planner and under NoPlanner, for one rule and for two: nil findings
// plus the context error.
func TestDetectContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pfds := range [][]*pfd.PFD{{varPFD()}, {constPFD(), varPFD()}} {
		for _, noPlanner := range []bool{false, true} {
			fs, err := DetectContextOptions(ctx, zipTable(), pfds, Options{NoPlanner: noPlanner})
			if err == nil || fs != nil {
				t.Fatalf("%d rules, NoPlanner %v: canceled detection = (%v, %v), want (nil, error)",
					len(pfds), noPlanner, fs, err)
			}
		}
	}
}

// TestDetectCanceledAllGroupsSkipped cancels before a run in which the
// planner short-circuits every LHS group, so no per-group context check
// runs: both paths must still report the cancellation.
func TestDetectCanceledAllGroupsSkipped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := pfd.MustNew("Zip", []string{"zip"}, "city",
		pfd.Row{LHS: []pfd.Cell{pfd.Pat(pattern.Constant("absent"))}, RHS: pfd.Wildcard()})
	for _, noPlanner := range []bool{false, true} {
		fs, err := DetectContextOptions(ctx, zipTable(), []*pfd.PFD{dead}, Options{NoPlanner: noPlanner})
		if !errors.Is(err, context.Canceled) || fs != nil {
			t.Fatalf("NoPlanner %v: canceled detection = (%v, %v), want (nil, context.Canceled)", noPlanner, fs, err)
		}
	}
}

// TestDetectMissingColumn runs rules naming a column the table lacks,
// on the LHS or the RHS, with and without tableau rows: both paths must
// return the same *pfd.MissingColumnError instead of panicking.
func TestDetectMissingColumn(t *testing.T) {
	zipState := pfd.Row{LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(900)\D{2}`))}, RHS: pfd.Wildcard()}
	cases := []struct {
		name    string
		rule    *pfd.PFD
		missing string
	}{
		{"rhs", pfd.MustNew("d", []string{"zip"}, "state", zipState), "state"},
		{"lhs", pfd.MustNew("d", []string{"county"}, "city", zipState), "county"},
		{"empty tableau", pfd.MustNew("d", []string{"zip"}, "state"), "state"},
	}
	for _, c := range cases {
		for _, noPlanner := range []bool{false, true} {
			for _, pfds := range [][]*pfd.PFD{{c.rule}, {varPFD(), c.rule}} {
				fs, err := DetectContextOptions(context.Background(), zipTable(), pfds, Options{NoPlanner: noPlanner})
				var mce *pfd.MissingColumnError
				if !errors.As(err, &mce) || fs != nil {
					t.Fatalf("%s, NoPlanner %v: detection = (%v, %v), want *pfd.MissingColumnError", c.name, noPlanner, fs, err)
				}
				if mce.Column != c.missing || mce.PFD != c.rule {
					t.Fatalf("%s: error names column %q of %v, want %q of %v", c.name, mce.Column, mce.PFD, c.missing, c.rule)
				}
			}
		}
	}
	if _, err := HolisticContext(context.Background(), zipTable(), []*pfd.PFD{cases[0].rule}, HolisticOptions{}); err == nil {
		t.Fatal("holistic repair with a missing column: want an error")
	}
}

// TestDetectPlannedMatchesIndependent pins the planner path (the
// default at any rule count) to the NoPlanner per-rule loop on a
// workload with overlapping rules, a duplicate-cell rule, and a
// rule whose constant LHS matches nothing.
func TestDetectPlannedMatchesIndependent(t *testing.T) {
	tb := zipTable()
	dead := pfd.MustNew("Zip", []string{"zip"}, "city",
		pfd.Row{LHS: []pfd.Cell{pfd.Pat(pattern.Constant("absent"))}, RHS: pfd.Wildcard()})
	pfds := []*pfd.PFD{constPFD(), varPFD(), constPFD(), dead}
	ctx := context.Background()
	planned, err := DetectContextOptions(ctx, tb, pfds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := DetectContextOptions(ctx, tb, pfds, Options{NoPlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(planned, naive) {
		t.Fatalf("planned detection diverges:\nplanned %+v\nnaive   %+v", planned, naive)
	}
	if len(planned) == 0 {
		t.Fatal("test premise broken: expected findings")
	}
	for _, p := range pfds {
		one := []*pfd.PFD{p}
		planned, err := DetectContextOptions(ctx, tb, one, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := DetectContextOptions(ctx, tb, one, Options{NoPlanner: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned, naive) {
			t.Fatalf("single-rule detection of %s diverges:\nplanned %+v\nnaive   %+v", p, planned, naive)
		}
	}
}

// TestDetectPlannedProgress checks the planner path still reports
// per-PFD progress in order.
func TestDetectPlannedProgress(t *testing.T) {
	tb := zipTable()
	pfds := []*pfd.PFD{constPFD(), varPFD()}
	var calls []int
	_, err := DetectContextOptions(context.Background(), tb, pfds, Options{
		Progress: func(done, total int) {
			if total != 2 {
				t.Errorf("total = %d", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(calls, []int{1, 2}) {
		t.Fatalf("progress calls = %v", calls)
	}
}
