package pfd

import (
	"reflect"
	"testing"

	"pfd/internal/pattern"
	"pfd/internal/relation"
)

func zipStatePFD() *PFD {
	return MustNew("Zip", []string{"zip"}, "state", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: Wildcard(),
	})
}

// TestViolationsFreshAfterMutation: a rule validated before in-place
// table mutation must report exactly what a fresh rule reports after
// every mutation — a Set that grows the dictionary, one that reverts to
// an existing value, and one that retires values — so nothing a call
// computed may leak into the next.
func TestViolationsFreshAfterMutation(t *testing.T) {
	tb := relation.New("Zip", "zip", "state")
	for _, r := range [][2]string{
		{"90012", "CA"}, {"90013", "CA"}, {"90014", "CA"},
		{"60601", "IL"}, {"60602", "IL"},
	} {
		tb.Append(r[0], r[1])
	}
	used := zipStatePFD()
	if got := used.Violations(tb); len(got) != 0 {
		t.Fatalf("clean table: %d violations", len(got))
	}

	// Mutation 1: introduce a brand-new value (dictionary grows).
	tb.Set(1, "state", "AZ")
	if got, want := used.Violations(tb), zipStatePFD().Violations(tb); !reflect.DeepEqual(got, want) {
		t.Fatalf("after new-value Set: reused rule %+v, fresh %+v", got, want)
	}

	// Mutation 2: rewrite with an existing value (dictionary length
	// unchanged — only codes move).
	tb.Set(1, "state", "CA")
	if got := used.Violations(tb); len(got) != 0 {
		t.Fatalf("after revert: %d violations", len(got))
	}

	// Mutation 3: retire a value completely and reintroduce another.
	tb.Set(3, "state", "CA")
	tb.Set(4, "state", "CA")
	if got, want := used.Violations(tb), zipStatePFD().Violations(tb); !reflect.DeepEqual(got, want) {
		t.Fatalf("after retire: reused rule %+v, fresh %+v", got, want)
	}
}

// TestViolationsAlternatingTables: one PFD alternating between two
// tables must report each table's own violations every time.
func TestViolationsAlternatingTables(t *testing.T) {
	mk := func(state string) *relation.Table {
		tb := relation.New("Zip", "zip", "state")
		tb.Append("90012", "CA")
		tb.Append("90013", state)
		return tb
	}
	clean, dirty := mk("CA"), mk("XX")
	p := zipStatePFD()
	for i := 0; i < 3; i++ {
		if got := p.Violations(clean); len(got) != 0 {
			t.Fatalf("round %d clean: %d violations", i, len(got))
		}
		if got := p.Violations(dirty); len(got) != 2 {
			t.Fatalf("round %d dirty: %d violations, want 2", i, len(got))
		}
	}
}

// TestViolationsSingleDistinctColumn: a column holding one distinct
// value exercises the degenerate one-entry dictionary on both sides.
func TestViolationsSingleDistinctColumn(t *testing.T) {
	tb := relation.New("T", "k", "v")
	for i := 0; i < 4; i++ {
		tb.Append("K1", "same")
	}
	p := MustNew("T", []string{"k"}, "v", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(K)\D`))},
		RHS: Wildcard(),
	})
	if got := p.Violations(tb); len(got) != 0 {
		t.Fatalf("constant column: %d violations", len(got))
	}
	tb.Set(2, "v", "other")
	got := p.Violations(tb)
	if len(got) != 1 || got[0].ErrorCell.Row != 2 || !got[0].HasConsensus || got[0].Expected != "same" {
		t.Fatalf("violations = %+v", got)
	}
}
