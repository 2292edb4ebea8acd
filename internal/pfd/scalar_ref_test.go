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

// violationsScalar is the retained scalar reference for Violations: the
// pre-kernel row-at-a-time scan (per-row branch on the span id, group
// discovery in first-seen order, per-group slice appends). It shares
// groupViolations with the kernel path — the group-check semantics are
// not under test here — so any divergence is in the scan/grouping the
// kernels replaced.
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
		lhsEvs, lhsCodes := p.evalLHS(t, ri)
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
// path and the bitmap multi-LHS path.
func randomWidePFDTable(r *rand.Rand, nrows int) (*PFD, *relation.Table) {
	t := relation.New("T", "a", "b", "c")
	zips := []string{"90001", "90002", "60601", "60602", "10001", "XYZ", ""}
	codes := []string{"AA1", "AB2", "BA9", "Z"}
	cities := []string{"LA", "CHI", "NY", "LA", "la"}
	for i := 0; i < nrows; i++ {
		t.Append(zips[r.Intn(len(zips))], codes[r.Intn(len(codes))], cities[r.Intn(len(cities))])
	}
	pats := []string{`(\D{3})\D{2}`, `(900)\D{2}`, `(\D{2})\D*`, `(\A+)`, `(\LU{2})\D*`}
	lhsCell := func() Cell {
		if r.Intn(4) == 0 {
			return Wildcard()
		}
		return Pat(pattern.MustParse(pats[r.Intn(len(pats))]))
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
	for k := 0; k < 1+r.Intn(2); k++ {
		lhs := make([]Cell, len(lhsAttrs))
		for j := range lhs {
			lhs[j] = lhsCell()
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

// TestViolationsChunkParallelDeterministic forces the chunk-parallel
// paths (table larger than two chunks, several workers) and pins the
// output to both the scalar reference and the single-worker kernel
// run — the acceptance condition for sharing the differential golden
// at any worker count.
func TestViolationsChunkParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	r := rand.New(rand.NewSource(42))
	nrows := 2*chunkRows + 1234 // spills into a partial third chunk
	defer func(w int) { scanWorkers = w }(scanWorkers)
	for trial := 0; trial < 2; trial++ {
		p, tb := randomWidePFDTable(r, nrows)

		scanWorkers = 1
		seq := p.Violations(tb)
		scanWorkers = 4
		par := p.Violations(tb)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("trial %d: parallel Violations diverges from sequential (pfd=%s)", trial, p)
		}
		want := violationsScalar(p, tb)
		if !reflect.DeepEqual(par, want) {
			t.Fatalf("trial %d: parallel Violations diverges from scalar reference (pfd=%s)", trial, p)
		}
	}
}

// TestLHSMatchRowsMatchesScalar pins the bitmap LHS matcher to the
// per-row definition.
func TestLHSMatchRowsMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		p, tb := randomWidePFDTable(r, r.Intn(130))
		got := p.LHSMatchRows(tb, 0)
		if len(got) != tb.NumRows() {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), tb.NumRows())
		}
		for id := range got {
			if got[id] != p.MatchesLHS(tb, 0, id) {
				t.Fatalf("trial %d row %d: bitmap=%v scalar=%v (pfd=%s)",
					trial, id, got[id], !got[id], p)
			}
		}
	}
}

// TestCountRowMatchesViolations pins CountRow, the count-only pass
// discovery's generalize step validates with, to the full scan: its
// coverage is the LHS match bitmap's popcount and its violation count
// the length of the tableau row's block in Violations.
func TestCountRowMatchesViolations(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		p, tb := randomWidePFDTable(r, r.Intn(130))
		perRow := make([]int, len(p.Tableau))
		for _, v := range p.Violations(tb) {
			perRow[v.TableauRow]++
		}
		for ri := range p.Tableau {
			covered, violations := p.CountRow(tb, ri)
			if want := kernel.PopcountSum(p.LHSMatchBitmap(tb, ri)); covered != want {
				t.Fatalf("trial %d row %d: covered %d, bitmap popcount %d (pfd=%s)", trial, ri, covered, want, p)
			}
			if violations != perRow[ri] {
				t.Fatalf("trial %d row %d: counted %d violations, Violations has %d (pfd=%s)",
					trial, ri, violations, perRow[ri], p)
			}
		}
	}
}
