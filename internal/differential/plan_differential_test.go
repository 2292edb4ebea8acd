package differential

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/plan"
	"pfd/internal/relation"
	"pfd/internal/repair"
)

// TestPlannedEvaluationDifferential pins the multi-rule planner
// byte-identical to independent per-rule evaluation on the discovered
// rulesets of every T1–T15 workload — the same instances the golden
// pipeline covers — both at the raw violation level (per-rule slices,
// reflect.DeepEqual including nil-ness) and through detection (planner
// path vs the NoPlanner per-rule loop, for the whole ruleset and for
// each rule alone).
func TestPlannedEvaluationDifferential(t *testing.T) {
	for _, spec := range datagen.Specs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			rows := workloadRows(spec.PaperRows)
			tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
			res := discovery.Discover(tbl, discovery.DefaultParams())
			var pfds []*pfd.PFD
			for _, d := range res.Dependencies {
				pfds = append(pfds, d.PFD)
			}
			if len(pfds) == 0 {
				t.Skip("no dependencies discovered")
			}
			assertPlannedIdentical(t, tbl, pfds)
		})
	}
}

// TestPlannedGeneratedRuleset stresses the planner on a synthetic
// 100-rule T13 ruleset with exactly the shapes the sharing logic must
// survive: replicated rules (overlapping LHS groups; fresh PFD objects
// whose tableaux alias the base rules', hitting the pointer-memoized
// build path), permuted multi-attribute LHS, multi-row tableaux mixing
// constants and patterns, zero-match constant cells on both sides, and
// equal-rendering cells under distinct pattern pointers (the
// Constant("A") family below, one parse per rule), hitting the
// string-canonicalization dedup path.
func TestPlannedGeneratedRuleset(t *testing.T) {
	spec, ok := datagen.SpecByID("T13")
	if !ok {
		t.Fatal("T13 spec missing")
	}
	// A quarter of the usual workload: the independent baseline runs all
	// 100 rules one at a time, so full T13 rows would dominate the suite.
	rows := workloadRows(spec.PaperRows) / 4
	tbl, _ := spec.Build(rows, workloadSeed, workloadDirt)
	res := discovery.Discover(tbl, discovery.DefaultParams())
	var base []*pfd.PFD
	for _, d := range res.Dependencies {
		base = append(base, d.PFD)
	}
	if len(base) == 0 {
		t.Fatal("no dependencies discovered on T13")
	}

	var pfds []*pfd.PFD
	// Replicas of the discovered rules: strong cell/group overlap.
	for len(pfds) < 80 {
		b := base[len(pfds)%len(base)]
		pfds = append(pfds, pfd.MustNew(b.Relation, b.LHS, b.RHS, b.Tableau...))
	}
	// Multi-attribute LHS in both permutations (permuted rules must NOT
	// share a group — emission order differs — but must stay correct).
	wideRow := func(n int) pfd.Row {
		return pfd.Row{LHS: make([]pfd.Cell, n), RHS: pfd.Wildcard()}
	}
	r2 := wideRow(2)
	r2.LHS[0], r2.LHS[1] = pfd.Wildcard(), pfd.Pat(pattern.MustParse(`(\LU+)\-\D*`))
	pfds = append(pfds,
		pfd.MustNew("T13", []string{"dept", "course_id"}, "grade", r2),
		pfd.MustNew("T13", []string{"course_id", "dept"}, "grade", pfd.Row{
			LHS: []pfd.Cell{r2.LHS[1], r2.LHS[0]}, RHS: pfd.Wildcard(),
		}),
	)
	// Multi-row tableaux: constant + variable rows in one rule.
	pfds = append(pfds, pfd.MustNew("T13", []string{"semester"}, "year",
		pfd.Row{LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\LU+)\D{4}`))}, RHS: pfd.Wildcard()},
		pfd.Row{LHS: []pfd.Cell{pfd.Pat(pattern.Constant("FA2019"))}, RHS: pfd.Pat(pattern.MustParse(`(\D{4})`))},
	))
	// Zero-match patterns: dead constant LHS (short-circuits) and a
	// dead constant RHS (must keep firing on every matching tuple).
	for i := 0; len(pfds) < 100; i++ {
		pfds = append(pfds,
			pfd.MustNew("T13", []string{"dept"}, "grade", pfd.Row{
				LHS: []pfd.Cell{pfd.Pat(pattern.Constant(fmt.Sprintf("no-such-dept-%d", i)))},
				RHS: pfd.Wildcard(),
			}),
			pfd.MustNew("T13", []string{"grade"}, "dept", pfd.Row{
				LHS: []pfd.Cell{pfd.Pat(pattern.Constant("A"))},
				RHS: pfd.Pat(pattern.Constant("no-such-dept")),
			}),
		)
	}
	pfds = pfds[:100]

	pl, skipped := assertPlannedIdentical(t, tbl, pfds)
	d := pl.Describe()
	if d.SharedGroups == 0 || skipped == 0 {
		t.Fatalf("generated ruleset should exercise sharing and short-circuits: %d skipped, %+v", skipped, d)
	}
	if d.DistinctCells >= d.TableauRows*2 {
		t.Fatalf("no cell dedup happened: %d distinct cells for %d tableau rows", d.DistinctCells, d.TableauRows)
	}
}

// assertPlannedIdentical checks planned == independent at the
// violation level and the detection level — the whole ruleset, then
// each rule alone, the one-rule plan a single-rule Detect compiles —
// returning the plan and the number of groups its execute
// short-circuited for further inspection.
func assertPlannedIdentical(t *testing.T, tbl *relation.Table, pfds []*pfd.PFD) (*plan.Plan, int) {
	t.Helper()
	pl := plan.New(pfds)
	got, skipped, err := pl.Run(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pfds {
		want := p.Violations(tbl)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("rule %d (%s): planned violations diverge from independent\ngot  %d violations\nwant %d violations",
				i, p.Embedded(), len(got[i]), len(want))
		}
	}
	planned := repair.Detect(tbl, pfds)
	naive, err := repair.DetectContextOptions(context.Background(), tbl, pfds, repair.Options{NoPlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(planned, naive) {
		t.Fatalf("planned detection diverges from independent: %d vs %d findings", len(planned), len(naive))
	}
	for i, p := range pfds {
		one := []*pfd.PFD{p}
		planned := repair.Detect(tbl, one)
		naive, err := repair.DetectContextOptions(context.Background(), tbl, one, repair.Options{NoPlanner: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned, naive) {
			t.Fatalf("rule %d (%s) alone: planned detection diverges from independent: %d vs %d findings",
				i, p.Embedded(), len(planned), len(naive))
		}
	}
	return pl, skipped
}
