package plan

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// randomTable builds a table over three columns from small value
// alphabets — collisions on every column, empty strings, values no
// pattern matches.
func randomTable(r *rand.Rand, nrows int) *relation.Table {
	t := relation.New("T", "a", "b", "c")
	zips := []string{"90001", "90002", "60601", "60602", "10001", "XYZ", ""}
	codes := []string{"AA1", "AB2", "BA9", "Z"}
	cities := []string{"LA", "CHI", "NY", "LA", "la"}
	for i := 0; i < nrows; i++ {
		t.Append(zips[r.Intn(len(zips))], codes[r.Intn(len(codes))], cities[r.Intn(len(cities))])
	}
	return t
}

// randomRuleset builds n rules over the table's columns with heavy
// overlap: cells drawn from a small pattern alphabet, one- and
// two-attribute LHS, multi-row tableaux, and (sometimes) constants
// matching zero dictionary entries.
func randomRuleset(r *rand.Rand, n int) []*pfd.PFD {
	pats := []string{`(\D{3})\D{2}`, `(900)\D{2}`, `(\D{2})\D*`, `(\A+)`, `(\LU{2})\D*`}
	lhsCell := func() pfd.Cell {
		switch r.Intn(6) {
		case 0:
			return pfd.Wildcard()
		case 1:
			return pfd.Pat(pattern.Constant("90001"))
		case 2:
			return pfd.Pat(pattern.Constant("absent-value")) // zero-match
		default:
			return pfd.Pat(pattern.MustParse(pats[r.Intn(len(pats))]))
		}
	}
	rhsCell := func() pfd.Cell {
		switch r.Intn(3) {
		case 0:
			return pfd.Wildcard()
		case 1:
			return pfd.Pat(pattern.Constant([]string{"LA", "CHI", "nope"}[r.Intn(3)]))
		default:
			return pfd.Pat(pattern.MustParse(`(\LU+)`))
		}
	}
	var out []*pfd.PFD
	for i := 0; i < n; i++ {
		lhsAttrs := [][]string{{"a"}, {"b"}, {"a", "b"}, {"b", "a"}}[r.Intn(4)]
		rhs := "c"
		var rows []pfd.Row
		for k := 0; k < 1+r.Intn(3); k++ {
			lhs := make([]pfd.Cell, len(lhsAttrs))
			for j := range lhs {
				lhs[j] = lhsCell()
			}
			rows = append(rows, pfd.Row{LHS: lhs, RHS: rhsCell()})
		}
		out = append(out, pfd.MustNew("T", lhsAttrs, rhs, rows...))
	}
	return out
}

// independent is the reference: every rule evaluated on its own.
func independent(pfds []*pfd.PFD, t *relation.Table) [][]pfd.Violation {
	out := make([][]pfd.Violation, len(pfds))
	for i, p := range pfds {
		out[i] = p.Violations(t)
	}
	return out
}

// TestPlannedMatchesIndependent pins planned evaluation byte-identical
// (reflect.DeepEqual, including nil-vs-empty) to independent per-rule
// evaluation over randomized rulesets and tables.
func TestPlannedMatchesIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		tb := randomTable(r, r.Intn(200))
		pfds := randomRuleset(r, 1+r.Intn(12))
		pl := New(pfds)
		got := pl.Violations(tb)
		want := independent(pfds, tb)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: planned diverges from independent\nplan=%+v", trial, pl.Describe())
		}
	}
}

// TestPlannedWorkerDeterminism pins single-worker and many-worker
// execution of the same plan byte-identical.
func TestPlannedWorkerDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	defer func(w int) { execWorkers = w }(execWorkers)
	for trial := 0; trial < 40; trial++ {
		tb := randomTable(r, 50+r.Intn(200))
		pfds := randomRuleset(r, 2+r.Intn(10))
		pl := New(pfds)
		execWorkers = 1
		seq := pl.Violations(tb)
		execWorkers = 8
		par := pl.Violations(tb)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d: worker count changed planned output", trial)
		}
	}
}

// TestPlanReusedAcrossGrowingTable reuses one plan while the table
// grows (append-only dictionaries), checking equivalence at every step.
func TestPlanReusedAcrossGrowingTable(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tb := randomTable(r, 40)
	pfds := randomRuleset(r, 8)
	pl := New(pfds)
	for step := 0; step < 5; step++ {
		if got, want := pl.Violations(tb), independent(pfds, tb); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: planned diverges after growth", step)
		}
		// Fresh values grow the dictionaries; repeats only bump counts.
		for i := 0; i < 15; i++ {
			tb.Append(fmt.Sprintf("z%d-%d", step, i), "AA1", fmt.Sprintf("city%d", step))
		}
	}
}

// TestShortCircuitZeroMatch checks that rules whose constant LHS cells
// match no dictionary entry are skipped (reported as short-circuited) and
// still come back with the exact independent result — and that a
// zero-match RHS does NOT suppress the nonMatching violations it must
// report.
func TestShortCircuitZeroMatch(t *testing.T) {
	tb := relation.New("T", "a", "c")
	for i := 0; i < 32; i++ {
		tb.Append("90001", fmt.Sprintf("v%d", i%3))
	}
	dead := pfd.MustNew("T", []string{"a"}, "c", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.Constant("nothing-matches"))},
		RHS: pfd.Wildcard(),
	})
	// Constant LHS that matches, RHS constant that matches nothing:
	// every matching tuple violates — must not be short-circuited.
	rhsDead := pfd.MustNew("T", []string{"a"}, "c", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.Constant("90001"))},
		RHS: pfd.Pat(pattern.Constant("absent")),
	})
	pfds := []*pfd.PFD{dead, rhsDead}
	got, skipped, err := New(pfds).Run(context.Background(), tb)
	if err != nil {
		t.Fatal(err)
	}
	want := independent(pfds, tb)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("short-circuit changed output:\ngot  %v\nwant %v", got, want)
	}
	if len(want[1]) == 0 {
		t.Fatal("test premise broken: zero-match RHS should violate on every tuple")
	}
	if skipped == 0 {
		t.Fatal("dead rule not short-circuited")
	}
}

// TestPrefixGroupRowsAscend pins row order in a group that one
// anchored prefix spans over several interleaved codes: the group is
// gathered from each code's postings in turn (rows 0, 2, 5 of 90002,
// then 1, 3, 4 of 90001), and must still be scanned in row order, so
// the minority rows 4 and 5 are reported in that order.
func TestPrefixGroupRowsAscend(t *testing.T) {
	tb := relation.New("T", "a", "c")
	for i, a := range []string{"90002", "90001", "90002", "90001", "90001", "90002"} {
		tb.Append(a, []string{"x", "x", "x", "x", "y", "y"}[i])
	}
	rule := pfd.MustNew("T", []string{"a"}, "c", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(900)\A*`))},
		RHS: pfd.Wildcard(),
	})
	got, _, err := New([]*pfd.PFD{rule}).Run(context.Background(), tb)
	if err != nil {
		t.Fatal(err)
	}
	var rows []int
	for _, v := range got[0] {
		if v.Expected != "x" || v.WitnessRow != 0 {
			t.Fatalf("violation %+v: want consensus x witnessed by row 0", v)
		}
		rows = append(rows, v.ErrorCell.Row)
	}
	if !reflect.DeepEqual(rows, []int{4, 5}) {
		t.Fatalf("violating rows %v, want [4 5]", rows)
	}
	if want := independent([]*pfd.PFD{rule}, tb); !reflect.DeepEqual(got, want) {
		t.Fatalf("planned diverges from independent:\ngot  %v\nwant %v", got, want)
	}
}

// TestPlanSharing checks the factoring itself: replicated rules must
// collapse to the distinct cells and groups of one copy.
func TestPlanSharing(t *testing.T) {
	base := pfd.MustNew("T", []string{"a"}, "c", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: pfd.Wildcard(),
	})
	var pfds []*pfd.PFD
	for i := 0; i < 50; i++ {
		pfds = append(pfds, pfd.MustNew(base.Relation, base.LHS, base.RHS, base.Tableau...))
	}
	d := New(pfds).Describe()
	if d.DistinctCells != 2 || d.Groups != 1 {
		t.Fatalf("50 identical rules should share 2 cells / 1 group, got %+v", d)
	}
	if d.SharedGroups != 1 || d.GroupDetail[0].Members != 50 || d.GroupDetail[0].Rules != 50 {
		t.Fatalf("group detail wrong: %+v", d.GroupDetail)
	}
}

// TestViolationsContextCanceled checks cancellation surfaces and
// discards output.
func TestViolationsContextCanceled(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tb := randomTable(r, 100)
	pfds := randomRuleset(r, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := New(pfds).ViolationsContext(ctx, tb)
	if err == nil || out != nil {
		t.Fatalf("want ctx error and nil output, got %v, %v", out, err)
	}
}

// TestBuildIsFast sanity-bounds plan construction: the acceptance bar
// is 100µs for 100 rules; the test allows generous CI headroom while
// still catching an accidental O(rows) or quadratic build.
func TestBuildIsFast(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pfds := randomRuleset(r, 100)
	const trials = 10
	best := 1e18
	for i := 0; i < trials; i++ {
		d := New(pfds).Describe()
		if d.BuildMicros < best {
			best = d.BuildMicros
		}
	}
	if best > 5000 {
		t.Fatalf("plan construction for 100 rules took %.0fµs (best of %d), want microsecond-scale", best, trials)
	}
}
