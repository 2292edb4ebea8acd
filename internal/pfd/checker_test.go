package pfd

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pfd/internal/pattern"
	"pfd/internal/relation"
)

func streamPFDs() []*PFD {
	constant := MustNew("Zip", []string{"zip"}, "city", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(900)\D{2}`))},
		RHS: Pat(pattern.Constant("Los Angeles")),
	})
	variable := MustNew("Zip", []string{"zip"}, "city", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: Wildcard(),
	})
	return []*PFD{constant, variable}
}

// mustCheck is CheckNext failing the test on a missing-column error.
func mustCheck(t *testing.T, c *Checker, tuple map[string]string) []StreamViolation {
	t.Helper()
	vs, err := c.CheckNext(tuple)
	if err != nil {
		t.Fatalf("CheckNext(%v): %v", tuple, err)
	}
	return vs
}

func TestCheckerConstantRowFiresImmediately(t *testing.T) {
	c := NewChecker(streamPFDs())
	if vs := mustCheck(t, c, map[string]string{"zip": "90001", "city": "Los Angeles"}); len(vs) != 0 {
		t.Fatalf("clean tuple flagged: %+v", vs)
	}
	vs := mustCheck(t, c, map[string]string{"zip": "90002", "city": "New York"})
	var constHit bool
	for _, v := range vs {
		if v.Expected == "Los Angeles" && v.NewTuple && v.Cell.Row == 1 {
			constHit = true
		}
	}
	if !constHit {
		t.Errorf("constant row must fire on the second tuple: %+v", vs)
	}
}

func TestCheckerMajorityBlame(t *testing.T) {
	variable := MustNew("Zip", []string{"zip"}, "state", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(\D{3})\D{2}`))},
		RHS: Wildcard(),
	})
	c := NewChecker([]*PFD{variable})
	mustCheck(t, c, map[string]string{"zip": "60601", "state": "IL"})
	mustCheck(t, c, map[string]string{"zip": "60602", "state": "IL"})
	vs := mustCheck(t, c, map[string]string{"zip": "60603", "state": "XX"})
	if len(vs) != 1 || !vs[0].NewTuple || vs[0].Expected != "IL" || vs[0].Cell.Row != 2 {
		t.Fatalf("minority newcomer not blamed: %+v", vs)
	}
	// An early dirty tuple is flagged retroactively once the majority
	// forms (with the sentinel row -1 pointing backwards).
	c2 := NewChecker([]*PFD{variable})
	mustCheck(t, c2, map[string]string{"zip": "10001", "state": "XX"}) // dirty first
	vs = mustCheck(t, c2, map[string]string{"zip": "10002", "state": "NY"})
	if len(vs) != 0 {
		t.Fatalf("tie must not fire: %+v", vs)
	}
	vs = mustCheck(t, c2, map[string]string{"zip": "10003", "state": "NY"})
	if len(vs) != 1 || vs[0].NewTuple || vs[0].Cell.Row != -1 || vs[0].Expected != "NY" {
		t.Fatalf("retroactive blame missing: %+v", vs)
	}
}

func TestCheckerMissingColumnTypedError(t *testing.T) {
	c := NewChecker(streamPFDs())
	vs, err := c.CheckNext(map[string]string{"zip": "90001"}) // no "city"
	if vs != nil {
		t.Fatalf("violations on rejected tuple: %+v", vs)
	}
	var mce *MissingColumnError
	if !errors.As(err, &mce) {
		t.Fatalf("want *MissingColumnError, got %T (%v)", err, err)
	}
	if mce.Column != "city" || mce.PFD == nil {
		t.Errorf("error fields: %+v", mce)
	}
	// The rejected tuple must not be folded in: the row counter and the
	// consensus state are untouched.
	if c.Rows() != 0 {
		t.Errorf("rejected tuple advanced Rows to %d", c.Rows())
	}
	if vs := mustCheck(t, c, map[string]string{"zip": "90001", "city": "Los Angeles"}); len(vs) != 0 {
		t.Errorf("state polluted by rejected tuple: %+v", vs)
	}
}

func TestRequiredColumnRefs(t *testing.T) {
	got := RequiredColumnRefs(streamPFDs())
	if len(got) != 2 || got[0].Column != "zip" || got[1].Column != "city" {
		t.Fatalf("RequiredColumnRefs = %+v, want zip then city", got)
	}
	if got[0].PFD == nil || got[1].PFD == nil {
		t.Errorf("first-referencing PFD missing: %+v", got)
	}
}

// TestCheckerTieGroup pins the tie semantics the differential test in
// internal/stream relies on: an even split never blames the incoming
// side (no strict majority), and the lexicographic tie-break in
// majoritySpan stays internal — it must not leak a violation.
func TestCheckerTieGroup(t *testing.T) {
	variable := MustNew("T", []string{"a"}, "b", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(\D{2})\D`))},
		RHS: Wildcard(),
	})
	c := NewChecker([]*PFD{variable})
	if vs := mustCheck(t, c, map[string]string{"a": "111", "b": "x"}); len(vs) != 0 {
		t.Fatalf("first tuple flagged: %+v", vs)
	}
	// 1x vs 1y: tie, nothing fires.
	if vs := mustCheck(t, c, map[string]string{"a": "112", "b": "y"}); len(vs) != 0 {
		t.Fatalf("1-1 tie fired: %+v", vs)
	}
	// 2x vs 1y: strict majority for x formed by the new tuple -> the
	// earlier minority y is blamed retroactively, not the newcomer.
	vs := mustCheck(t, c, map[string]string{"a": "113", "b": "x"})
	if len(vs) != 1 || vs[0].NewTuple || vs[0].Cell.Row != -1 || vs[0].Expected != "x" {
		t.Fatalf("majority tip not retroactive: %+v", vs)
	}
	// 2x vs 2y: back to a tie, nothing fires again.
	if vs := mustCheck(t, c, map[string]string{"a": "114", "b": "y"}); len(vs) != 0 {
		t.Fatalf("2-2 tie fired: %+v", vs)
	}
}

// TestCheckerConstantRowKinds covers the two constant-LHS shapes: a
// constant RHS checks single tuples exactly; a wildcard RHS falls back
// to span consensus within the constant LHS group.
func TestCheckerConstantRowKinds(t *testing.T) {
	constRHS := MustNew("Zip", []string{"zip"}, "city", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(900)\D{2}`))},
		RHS: Pat(pattern.Constant("Los Angeles")),
	})
	wildRHS := MustNew("Zip", []string{"zip"}, "city", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(606)\D{2}`))},
		RHS: Wildcard(),
	})
	c := NewChecker([]*PFD{constRHS, wildRHS})
	// Constant RHS fires immediately, even on the very first tuple.
	vs := mustCheck(t, c, map[string]string{"zip": "90001", "city": "LA"})
	if len(vs) != 1 || !vs[0].NewTuple || vs[0].Expected != "Los Angeles" {
		t.Fatalf("constant row must fire on first tuple: %+v", vs)
	}
	// Wildcard RHS under a constant LHS needs consensus: two agreeing
	// tuples, then a deviant gets blamed.
	mustCheck(t, c, map[string]string{"zip": "60601", "city": "Chicago"})
	mustCheck(t, c, map[string]string{"zip": "60602", "city": "Chicago"})
	vs = mustCheck(t, c, map[string]string{"zip": "60603", "city": "Gary"})
	if len(vs) != 1 || !vs[0].NewTuple || vs[0].Expected != "Chicago" {
		t.Fatalf("consensus under constant LHS missing: %+v", vs)
	}
}

// TestCheckerLateMajorityFlip pins NewTuple attribution when the
// majority arrives after the dirty tuple: the retroactive finding has
// NewTuple=false and the sentinel row -1, and it re-fires on every
// later majority-side tuple while the group still disagrees (the stream
// has no memory of which findings it already reported — documented,
// and relied on by the engine's differential test).
func TestCheckerLateMajorityFlip(t *testing.T) {
	variable := MustNew("T", []string{"a"}, "b", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(\D{2})\D`))},
		RHS: Wildcard(),
	})
	c := NewChecker([]*PFD{variable})
	mustCheck(t, c, map[string]string{"a": "111", "b": "BAD"}) // dirty first
	if vs := mustCheck(t, c, map[string]string{"a": "112", "b": "ok"}); len(vs) != 0 {
		t.Fatalf("tie fired: %+v", vs)
	}
	// Majority tips to "ok": retroactive, not NewTuple.
	vs := mustCheck(t, c, map[string]string{"a": "113", "b": "ok"})
	if len(vs) != 1 || vs[0].NewTuple || vs[0].Cell.Row != -1 || vs[0].Expected != "ok" {
		t.Fatalf("flip not attributed retroactively: %+v", vs)
	}
	// A fourth agreeing tuple re-fires the retroactive signal: the
	// group still holds a disagreeing span.
	vs = mustCheck(t, c, map[string]string{"a": "114", "b": "ok"})
	if len(vs) != 1 || vs[0].NewTuple || vs[0].Cell.Row != -1 {
		t.Fatalf("retroactive signal must re-fire: %+v", vs)
	}
	// Had the dirty tuple arrived last instead, it would be blamed
	// directly (NewTuple=true, real row id) — the flip changes only
	// attribution, never detection.
	c2 := NewChecker([]*PFD{variable})
	mustCheck(t, c2, map[string]string{"a": "111", "b": "ok"})
	mustCheck(t, c2, map[string]string{"a": "112", "b": "ok"})
	vs = mustCheck(t, c2, map[string]string{"a": "113", "b": "BAD"})
	if len(vs) != 1 || !vs[0].NewTuple || vs[0].Cell.Row != 2 || vs[0].Expected != "ok" {
		t.Fatalf("direct blame missing: %+v", vs)
	}
}

func TestCheckerNonMatchingLHSIgnored(t *testing.T) {
	c := NewChecker(streamPFDs())
	if vs := mustCheck(t, c, map[string]string{"zip": "ABCDE", "city": "Nowhere"}); len(vs) != 0 {
		t.Errorf("non-matching tuple flagged: %+v", vs)
	}
	if c.Rows() != 1 {
		t.Errorf("Rows = %d", c.Rows())
	}
}

// TestQuickCheckerAgreesWithBatch streams random tables through the
// checker and cross-checks completeness against the batch detector:
// every batch violation whose group has a strict final majority must
// surface in the stream — either the dirty tuple was flagged on arrival
// (the majority already existed) or a retroactive signal fired when a
// later tuple tipped the majority. (The converse does not hold: a
// transient mid-stream majority may blame a tuple the final tie
// forgives; streaming has no hindsight.)
func TestQuickCheckerAgreesWithBatch(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	variable := MustNew("T", []string{"a"}, "b", Row{
		LHS: []Cell{Pat(pattern.MustParse(`(\D{2})\D`))},
		RHS: Wildcard(),
	})
	f := func() bool {
		tb := relation.New("T", "a", "b")
		n := 5 + r.Intn(15)
		for i := 0; i < n; i++ {
			prefix := []string{"111", "222"}[r.Intn(2)]
			label := []string{"x", "x", "x", "y"}[r.Intn(4)]
			tb.Append(prefix, label)
		}
		batch := variable.Violations(tb)
		batchRows := map[int]bool{}
		for _, v := range batch {
			if v.HasConsensus {
				batchRows[v.ErrorCell.Row] = true
			}
		}
		c := NewChecker([]*PFD{variable})
		streamed := map[int]bool{}
		retro := 0
		for i := 0; i < n; i++ {
			vs, err := c.CheckNext(map[string]string{"a": tb.Value(i, "a"), "b": tb.Value(i, "b")})
			if err != nil {
				t.Fatalf("CheckNext: %v", err)
			}
			for _, v := range vs {
				if v.NewTuple {
					streamed[v.Cell.Row] = true
				} else {
					retro++
				}
			}
		}
		// Completeness: every batch-consensus error row is either
		// stream-flagged directly or covered by a retroactive signal.
		for row := range batchRows {
			if !streamed[row] && retro == 0 {
				t.Logf("batch error row %d escaped the stream (batch=%v stream=%v)", row, batchRows, streamed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestGroupStateFoldMatchesFullScan replays random fold sequences over
// small span alphabets, so counts tie often, against the full-scan
// rule: recount every span, take the most frequent (ties to the
// smallest span) and compare its count with the group total.
func TestGroupStateFoldMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	alphabet := []string{"", "a", "b", "ab", "é"}
	for trial := 0; trial < 500; trial++ {
		g := NewGroupState()
		counts := map[string]int{}
		k := 1 + r.Intn(len(alphabet))
		for step, n := 0, r.Intn(40); step < n; step++ {
			span := alphabet[r.Intn(k)]
			counts[span]++
			best, bestN := "", 0
			for s, c := range counts {
				if c > bestN || (c == bestN && s < best) {
					best, bestN = s, c
				}
			}
			wantOut, wantMaj := FoldAgree, ""
			if len(counts) > 1 && 2*bestN > step+1 {
				wantOut, wantMaj = FoldRetroactive, best
				if best != span {
					wantOut = FoldMinority
				}
			}
			gotOut, gotMaj := g.Fold(span)
			if gotOut != wantOut || gotMaj != wantMaj {
				t.Fatalf("trial %d step %d fold %q (counts %v): got (%d, %q), want (%d, %q)",
					trial, step, span, counts, gotOut, gotMaj, wantOut, wantMaj)
			}
			if g.best != best || g.bestN != bestN {
				t.Fatalf("trial %d step %d: running best (%q, %d), full scan (%q, %d)",
					trial, step, g.best, g.bestN, best, bestN)
			}
		}
	}
}
