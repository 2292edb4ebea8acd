package discovery

import (
	"fmt"
	"testing"

	"pfd/internal/index"
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// extendFixture builds a discoverer over a two-column table wired to a
// real inverted index, plus a base draft over the first column, so
// extend can be exercised in isolation.
func extendFixture() (*discoverer, rowDraft) {
	t := relation.New("T", "x", "y")
	// 16 rows: x cycles 4 values (4 rows each), y cycles 4 values in a
	// stride that gives every (x, y) combination support 1 and every y
	// value support 2 within a fixed x — above MinSupport when paired.
	for i := 0; i < 32; i++ {
		t.Append(fmt.Sprintf("x%d", i%4), fmt.Sprintf("y%d", (i/4)%4))
	}
	profs := relation.ProfileTable(t)
	byName := make(map[string]relation.ColumnProfile, len(profs))
	for _, p := range profs {
		byName[p.Name] = p
	}
	inv := index.Build(t, profs, []string{"x", "y"}, index.Options{MinIDs: 2})
	d := &discoverer{sharedState: sharedState{
		t:        t,
		inv:      inv,
		params:   Params{MinSupport: 2, Delta: 0.05, MinCoverage: 0.1, MaxLHS: 2}.normalize(),
		profiles: byName,
	}}
	d.order = []string{"x", "y"}
	xAttr := inv.Attrs["x"]
	var base rowDraft
	for ei := range xAttr.Entries {
		if xAttr.Entries[ei].Key.Text == "x0" {
			base = rowDraft{entries: []index.Key{xAttr.Entries[ei].Key}, rows: xAttr.Entries[ei].List}
		}
	}
	if base.rows == nil {
		panic("fixture: no x0 entry")
	}
	return d, base
}

// TestExtendAllocs pins the draft-extension allocation budget: each
// spawned draft costs one positional entries slice plus one filtered
// row slice (the per-draft map of earlier revisions added an hmap and
// bucket array per draft on top — ~5 allocations each). The recycled
// CountWithinInto buffer is warmed before measuring, as in the
// candidate loop.
func TestExtendAllocs(t *testing.T) {
	d, base := extendFixture()
	drafts := d.extend(base, []string{"y"})
	if len(drafts) != 5 { // y0..y3 plus the shared "y" prefix gram
		t.Fatalf("fixture yields %d drafts, want 5", len(drafts))
	}
	avg := testing.AllocsPerRun(100, func() {
		d.extend(base, []string{"y"})
	})
	// 5 drafts × (entries + filtered rows + leaf slice) + result-slice
	// growth. The map-based representation measured ~2× this.
	const limit = 20
	if avg > limit {
		t.Fatalf("extend allocates %.1f per run, want <= %d", avg, limit)
	}
}

// TestGeneralizeValidationAllocs pins generalize's count-and-coverage
// pass (pfd.Count on the one-row candidate variable PFD) to a budget that
// does not grow with the table or its violations: it evaluates each
// cell once per distinct value and counts group verdicts, and never
// materializes a Violation or its Cells slices. The fixture's 2,000
// rows carry 154 RHS deviations, each of which Violations would
// report with two Cells slices.
func TestGeneralizeValidationAllocs(t *testing.T) {
	tb := relation.New("T", "zip", "city")
	for i := 0; i < 2000; i++ {
		city := fmt.Sprintf("city%d", i%20)
		if i%13 == 0 {
			city = "typo"
		}
		tb.Append(fmt.Sprintf("%03d%02d", i%20, i%7), city)
	}
	vp := pfd.MustNew("T", []string{"zip"}, "city", pfd.Row{
		LHS: []pfd.Cell{pfd.Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: pfd.Wildcard(),
	})
	covered, violations := vp.Count(tb)
	if covered != 2000 || violations != 154 {
		t.Fatalf("fixture: covered %d, %d violations; want 2000, 154", covered, violations)
	}
	avg := testing.AllocsPerRun(20, func() { vp.Count(tb) })
	// Measured 80: the tableau bind (two column evaluations), the
	// gather arena, the group scan's slot lists. Violations on the same
	// rule measured 600.
	const limit = 100
	if avg > limit {
		t.Fatalf("generalize's validation pass allocates %.1f per run, want <= %d", avg, limit)
	}
}
