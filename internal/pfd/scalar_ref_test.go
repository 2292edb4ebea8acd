package pfd

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pfd/internal/kernel"
	"pfd/internal/pattern"
	"pfd/internal/relation"
)

// EvalCellSpans is the per-cell oracle for EvalColumnSpans and the
// tableau bind: it evaluates cell c over a column dictionary by calling
// c.Span on every entry, with no anchor index and no sharing across
// cells.
func EvalCellSpans(c Cell, dict []string) *SpanEval {
	ev := &SpanEval{Sid: make([]int32, len(dict))}
	intern := make(map[string]int32, 16)
	for code, v := range dict {
		span, ok := c.Span(v)
		if !ok {
			ev.Sid[code] = -1
			continue
		}
		sid, seen := intern[span]
		if !seen {
			sid = int32(len(ev.Sids))
			intern[span] = sid
			ev.Sids = append(ev.Sids, span)
		}
		ev.Sid[code] = sid
	}
	return ev
}

// violationsScalar is the retained scalar reference for Violations: the
// pre-kernel row-at-a-time scan (per-row branch on the span id, group
// discovery in first-seen order, per-group slice appends) over per-cell
// EvalCellSpans evaluations, so it shares nothing with the tableau
// bind. It shares groupViolations with the kernel path — the
// group-check semantics are not under test here — so any divergence is
// in the bind or the scan/grouping the kernels replaced.
func violationsScalar(p *PFD, t *relation.Table) []Violation {
	var out []Violation
	var keyBuf []byte
	groupIdx := map[string]int{}
	var keys []string
	var groupIDs [][]int32
	var scan GroupScan
	nrows := t.NumRows()
	rhsCol := t.MustCol(p.RHS)
	rhsCodes := t.Codes(rhsCol)
	for ri, row := range p.Tableau {
		constant := row.ConstantLHS()
		lhsEvs := make([]*SpanEval, len(p.LHS))
		lhsCodes := make([][]uint32, len(p.LHS))
		for j, a := range p.LHS {
			ci := t.MustCol(a)
			lhsEvs[j], lhsCodes[j] = EvalCellSpans(row.LHS[j], t.Dict(ci)), t.Codes(ci)
		}
		rhsEv := EvalCellSpans(row.RHS, t.Dict(rhsCol))
		keys = keys[:0]
		groupIDs = groupIDs[:0]

		if len(p.LHS) == 1 {
			ev, codes0 := lhsEvs[0], lhsCodes[0]
			groupOf := make([]int32, len(ev.Sids))
			for i := range groupOf {
				groupOf[i] = -1
			}
			for id := 0; id < nrows; id++ {
				sid := ev.Sid[codes0[id]]
				if sid < 0 {
					continue
				}
				gi := groupOf[sid]
				if gi < 0 {
					gi = int32(len(groupIDs))
					groupOf[sid] = gi
					keys = append(keys, ev.Sids[sid])
					groupIDs = append(groupIDs, nil)
				}
				groupIDs[gi] = append(groupIDs[gi], int32(id))
			}
		} else {
			clear(groupIdx)
		rows:
			for id := 0; id < nrows; id++ {
				keyBuf = keyBuf[:0]
				for j := range lhsEvs {
					code := lhsCodes[j][id]
					sid := lhsEvs[j].Sid[code]
					if sid < 0 {
						continue rows
					}
					keyBuf = append(keyBuf, lhsEvs[j].Sids[sid]...)
					keyBuf = append(keyBuf, '\x00')
				}
				gi, seen := groupIdx[string(keyBuf)]
				if !seen {
					gi = len(groupIDs)
					k := string(keyBuf)
					groupIdx[k] = gi
					keys = append(keys, k)
					groupIDs = append(groupIDs, nil)
				}
				groupIDs[gi] = append(groupIDs[gi], int32(id))
			}
		}

		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
		for _, gi := range order {
			out = append(out, p.groupViolations(&scan, ri, row, groupIDs[gi], constant, rhsCodes, rhsEv)...)
		}
	}
	return out
}

// randomWidePFDTable builds a random table over three columns and a PFD
// with one or two LHS attributes, exercising both the span-id gather
// path and the bitmap multi-LHS path. Its tableau has 1–4 rows whose
// LHS cells mix wildcards, constants drawn from the column's values,
// anchored prefixes (pairs sharing the literal 900 or A, one behind a
// rune skip) and unanchored shapes, so rows of one rule share cells
// and literals in the whole-tableau bind.
func randomWidePFDTable(r *rand.Rand, nrows int) (*PFD, *relation.Table) {
	t := relation.New("T", "a", "b", "c")
	zips := []string{"90001", "90002", "60601", "60602", "10001", "XYZ", ""}
	codes := []string{"AA1", "AB2", "BA9", "Z"}
	cities := []string{"LA", "CHI", "NY", "LA", "la"}
	for i := 0; i < nrows; i++ {
		t.Append(zips[r.Intn(len(zips))], codes[r.Intn(len(codes))], cities[r.Intn(len(cities))])
	}
	values := map[string][]string{"a": zips, "b": codes}
	pats := []string{
		`(\D{3})\D{2}`, `(\D{2})\D*`, `(\A+)`, `(\LU{2})\D*`, `(900)\D{2}`, // unanchored
		`(900)\A*`, `900\A*`, `(A)\A*`, `A\A*`, `(AB)\A*`, `\A{2}(0)\A*`, // anchored
	}
	lhsCell := func(attr string) Cell {
		switch r.Intn(5) {
		case 0:
			return Wildcard()
		case 1:
			vs := values[attr]
			return Pat(pattern.Constant(vs[r.Intn(len(vs))]))
		default:
			return Pat(pattern.MustParse(pats[r.Intn(len(pats))]))
		}
	}
	rhsCell := func() Cell {
		switch r.Intn(3) {
		case 0:
			return Wildcard()
		case 1:
			return Pat(pattern.Constant(cities[r.Intn(len(cities))]))
		default:
			return Pat(pattern.MustParse(`(\LU+)`))
		}
	}
	wide := r.Intn(2) == 0
	lhsAttrs := []string{"a"}
	if wide {
		lhsAttrs = []string{"a", "b"}
	}
	var rows []Row
	for k := 0; k < 1+r.Intn(4); k++ {
		lhs := make([]Cell, len(lhsAttrs))
		for j, a := range lhsAttrs {
			lhs[j] = lhsCell(a)
		}
		rows = append(rows, Row{LHS: lhs, RHS: rhsCell()})
	}
	return MustNew("T", lhsAttrs, "c", rows...), t
}

// TestViolationsMatchesScalarReference pins the kernel-based Violations
// byte-identical to the retained scalar reference over randomized
// tables — single- and multi-attribute LHS, wildcards, empty strings,
// tables too small for a full bitmap word.
func TestViolationsMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		p, tb := randomWidePFDTable(r, r.Intn(130))
		got := p.Violations(tb)
		want := violationsScalar(p, tb)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: kernel Violations diverges from scalar reference\npfd=%s\ngot=%v\nwant=%v",
				trial, p, got, want)
		}
	}
}

// TestLargeTableMatchesScalar pins Violations, Count and LHSMatchBitmap
// to the scalar references on tables of more than 2×16,384 rows, with a
// partial last bitmap word: sizes the randomized tests above never
// reach.
func TestLargeTableMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	r := rand.New(rand.NewSource(42))
	nrows := 2*16384 + 1234
	for trial := 0; trial < 2; trial++ {
		p, tb := randomWidePFDTable(r, nrows)
		want := violationsScalar(p, tb)
		if got := p.Violations(tb); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Violations diverges from scalar reference (pfd=%s)", trial, p)
		}
		bm := p.LHSMatchBitmap(tb)
		wantCovered := 0
		for id, ok := range coveredScalar(p, tb) {
			if bit := bm[id/kernel.WordBits]>>(id%kernel.WordBits)&1 == 1; bit != ok {
				t.Fatalf("trial %d row %d: bitmap=%v scalar=%v (pfd=%s)", trial, id, bit, ok, p)
			}
			if ok {
				wantCovered++
			}
		}
		if n := kernel.PopcountSum(bm); n != wantCovered {
			t.Fatalf("trial %d: %d bits set, %d rows covered (pfd=%s)", trial, n, wantCovered, p)
		}
		if covered, violations := p.Count(tb); covered != wantCovered || violations != len(want) {
			t.Fatalf("trial %d: Count = (%d, %d), scalar (%d, %d) (pfd=%s)",
				trial, covered, violations, wantCovered, len(want), p)
		}
	}
}

// coveredScalar returns, per table row, whether it matches any tableau
// row's LHS by the row-at-a-time MatchesLHS.
func coveredScalar(p *PFD, t *relation.Table) []bool {
	out := make([]bool, t.NumRows())
	for id := range out {
		for ri := range p.Tableau {
			if p.MatchesLHS(t, ri, id) {
				out[id] = true
				break
			}
		}
	}
	return out
}

// TestLHSMatchBitmapMatchesScalar pins the tableau's union LHS match
// bitmap to the per-row definition.
func TestLHSMatchBitmapMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		p, tb := randomWidePFDTable(r, r.Intn(130))
		got := p.LHSMatchBitmap(tb)
		if len(got) != kernel.Words(tb.NumRows()) {
			t.Fatalf("trial %d: %d words for %d rows", trial, len(got), tb.NumRows())
		}
		covered := 0
		for id, want := range coveredScalar(p, tb) {
			if bit := got[id/kernel.WordBits]>>(id%kernel.WordBits)&1 == 1; bit != want {
				t.Fatalf("trial %d row %d: bitmap=%v scalar=%v (pfd=%s)", trial, id, bit, want, p)
			}
			if want {
				covered++
			}
		}
		if n := kernel.PopcountSum(got); n != covered {
			t.Fatalf("trial %d: %d bits set, %d rows covered (pfd=%s)", trial, n, covered, p)
		}
	}
}

// TestCountMatchesScalar pins Count, the count-only pass discovery's
// generalize step validates with, to references that share no code
// with it: its coverage is the number of rows MatchesLHS accepts under
// some tableau row, and its violation count the length of the scalar
// reference's Violations.
func TestCountMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		p, tb := randomWidePFDTable(r, r.Intn(130))
		wantCovered := 0
		for _, ok := range coveredScalar(p, tb) {
			if ok {
				wantCovered++
			}
		}
		wantViolations := len(violationsScalar(p, tb))
		covered, violations := p.Count(tb)
		if covered != wantCovered || violations != wantViolations {
			t.Fatalf("trial %d: Count = (%d, %d), scalar (%d, %d) (pfd=%s)",
				trial, covered, violations, wantCovered, wantViolations, p)
		}
	}
}
