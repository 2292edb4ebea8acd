package pfd

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pfd/internal/kernel"
	"pfd/internal/pattern"
)

// FuzzParsePFD pins the parse/render fixpoint: any input that ParsePFD
// accepts must render to a string that parses back to a structurally
// identical PFD with an identical rendering. Together with the
// quickcheck round-trip tests (ParsePFD(p.String()) ≡ p over generated
// tableaux) this guarantees the text codec is lossless, including
// escaped spaces and delimiters, '_' wildcards, and multi-row
// tableaux. CI runs a short -fuzz smoke over this target.
func FuzzParsePFD(f *testing.F) {
	for _, seed := range []string{
		`Zip([zip = (900)\D{2}] -> [city = Los\ Angeles])`,
		`Zip([zip = (\D{3})\D{2}] -> [city = _])`,
		`Name([name = (John\ )\A*] -> [gender = M])`,
		`R([a = (\LU\LL*\ )\A*, b = _] -> [c = (\LU{2})\D+])`,
		`R([a = x] -> [b = y]); R([a = z] -> [b = w])`,
		`R([a = Washington\,\ DC] -> [b = a\_b])`,
		`R([a = \[brack\]et] -> [b = semi\;colon])`,
		`R([a,b] -> [c], Tp=∅)`,
		`R([a = (\D{1,3})\S*] -> [b = (\LL+)\D{2,}])`,
		`R([a = ⊥] -> [b = ⊥\ unicode\ ✓])`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePFD(src)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		rendered := p.String()
		again, err := ParsePFD(rendered)
		if err != nil {
			t.Fatalf("render of accepted input does not re-parse:\n in  %q\n out %q\n err %v", src, rendered, err)
		}
		if !again.Equal(p) {
			t.Fatalf("re-parse drifted:\n in  %q\n 1st %s\n 2nd %s", src, p, again)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("render not a fixpoint:\n in  %q\n 1st %q\n 2nd %q", src, rendered, got)
		}
	})
}

// FuzzParseLine pins the line codec every rule text goes through:
// any line ParseLine accepts, multi-attribute RHS and bare attributes
// included, prints to text that parses back to an equal line, and
// printing that again changes nothing. CI runs a short -fuzz smoke over
// this target.
func FuzzParseLine(f *testing.F) {
	for _, seed := range []string{
		`Zip([zip = (900)\D{2}] -> [city = Los\ Angeles])`,
		`R([zip = (900)\D{2}] -> [city = LA, state = CA])`,
		`R([a, b = x] -> [c])`,
		`People([first\ name = (John\ )\A*] -> [gender = M])`,
		`R\,S([a\=b = _, \[c\] = (\D{1,3})\S*] -> [d\;e = ⊥])`,
		`R([a = ()] -> [b = a\_b, c = \[brack\]et])`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ParseLine(src)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		printed := l.String()
		again, err := ParseLine(printed)
		if err != nil {
			t.Fatalf("print of accepted input does not re-parse:\n in  %q\n out %q\n err %v", src, printed, err)
		}
		if !linesEqual(l, again) {
			t.Fatalf("re-parse drifted:\n in  %q\n 1st %s\n 2nd %s", src, l, again)
		}
		if got := again.String(); got != printed {
			t.Fatalf("print not a fixpoint:\n in  %q\n 1st %q\n 2nd %q", src, printed, got)
		}
	})
}

func linesEqual(a, b Line) bool {
	termsEqual := func(x, y Term) bool { return x.Attr == y.Attr && x.Cell.Equal(y.Cell) }
	return a.Relation == b.Relation &&
		slices.EqualFunc(a.LHS, b.LHS, termsEqual) && slices.EqualFunc(a.RHS, b.RHS, termsEqual)
}

// FuzzEvalColumnSpans pins the one-pass column bind, which the planner
// and every rule's tableau bind run, to its per-cell oracle: over a
// random dictionary, EvalColumnSpans must equal EvalCellSpans cell by
// cell, Sids order included, once a sparse evaluation is expanded to
// the dense vector. A cell that anchors a literal must come back
// sparse, its hits ascending by code, and every other cell dense. The
// cell sets mix
// constants (the empty constant too), anchored prefixes behind
// multi-byte rune skips, cells sharing one literal, wildcards and
// unanchored shapes; the dictionaries hold invalid UTF-8, the fuzzed
// bytes themselves and values shorter than skip + literal. CI runs a
// short -fuzz smoke over this target.
func FuzzEvalColumnSpans(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), "")
	f.Add(int64(2), uint8(39), uint8(200), "\xff\xfeLinda é")
	f.Add(int64(3), uint8(0), uint8(0), "")
	f.Add(int64(4), uint8(25), uint8(120), "€x\xc3")
	f.Fuzz(func(t *testing.T, seed int64, ncells, nvals uint8, raw string) {
		r := rand.New(rand.NewSource(seed))
		cells := make([]Cell, 1+int(ncells)%40)
		for i := range cells {
			if i > 0 && r.Intn(6) == 0 {
				cells[i] = cells[r.Intn(i)] // the same cell twice
				continue
			}
			cells[i] = randomColumnCell(r)
		}
		dict := randomColumnDict(r, int(nvals), raw)
		got := EvalColumnSpans(cells, dict)
		if len(got) != len(cells) {
			t.Fatalf("%d evaluations for %d cells", len(got), len(cells))
		}
		for i, c := range cells {
			anchored := false
			if !c.IsWildcard() {
				_, _, _, anchored = c.Pattern.Compiled().Anchor()
			}
			if got[i].Sparse() != anchored {
				t.Fatalf("cell %d %s: sparse %v, want %v", i, c, got[i].Sparse(), anchored)
			}
			if !slices.IsSortedFunc(got[i].Hits, func(a, b kernel.Hit) int { return cmp.Compare(a.Code, b.Code) }) {
				t.Fatalf("cell %d %s: hits out of code order: %v", i, c, got[i].Hits)
			}
			if want, dense := EvalCellSpans(c, dict), expandSpanEval(got[i], len(dict)); !reflect.DeepEqual(dense, want) {
				t.Fatalf("cell %d %s over %q:\n got %+v\nwant %+v", i, c, dict, got[i], want)
			}
		}
	})
}

// expandSpanEval returns ev in the dense form over an n-code
// dictionary: a sparse evaluation's hits written into a vector of -1.
func expandSpanEval(ev *SpanEval, n int) *SpanEval {
	if !ev.Sparse() {
		return ev
	}
	sid := make([]int32, n)
	for code := range sid {
		sid[code] = -1
	}
	for _, h := range ev.Hits {
		sid[h.Code] = h.Sid
	}
	return &SpanEval{Sid: sid, Sids: ev.Sids}
}

// Value and literal pools for FuzzEvalColumnSpans: small, so that cells
// share literals and values carry them; multi-byte runes so that rune
// skips and byte lengths differ.
var (
	columnLits   = []string{"Li", "Linda ", "é", "€x", "90", "a", "B7", "😀"}
	columnRunes  = []string{"a", "B", "7", " ", "é", "€", "😀", "\xff"}
	columnPieces = []string{"", "a", "Li", "nda", " ", "é", "€", "90", "\xff", "\xc3", "\xe2\x82"}
	columnShapes = []string{`(\LU+)`, `(\D{3})\D{2}`, `(\A+)`, `\A*(a)\A*`, `(\A{2})Li\A*`, `(\LL+)\D*`, `(\LU\LL*\ )\A*`, `\D+`}
)

// randomColumnCell draws a wildcard, a constant, an anchored prefix
// (constrained or not, after 0–3 skipped runes) or an unanchored shape.
func randomColumnCell(r *rand.Rand) Cell {
	lit := columnLits[r.Intn(len(columnLits))]
	switch r.Intn(5) {
	case 0:
		return Wildcard()
	case 1:
		if r.Intn(4) == 0 {
			lit = ""
		}
		return Pat(pattern.Constant(lit))
	case 2, 3:
		skip := r.Intn(4)
		var toks []pattern.Token
		if skip > 0 {
			toks = append(toks, pattern.Exactly(pattern.Any, skip))
		}
		lo := len(toks)
		for _, c := range lit {
			toks = append(toks, pattern.Lit(c))
		}
		hi := len(toks)
		toks = append(toks, pattern.Star(pattern.Any))
		if r.Intn(4) == 0 {
			return Pat(pattern.New(toks...))
		}
		return Pat(pattern.NewConstrained(toks, lo, hi))
	default:
		return Pat(pattern.MustParse(columnShapes[r.Intn(len(columnShapes))]))
	}
}

// randomColumnDict draws n values: runes, then a pool literal, then a
// tail; bare pieces; cuts of either at any byte; and raw and its cuts.
func randomColumnDict(r *rand.Rand, n int, raw string) []string {
	dict := []string{raw}
	for len(dict) < n {
		var b strings.Builder
		if r.Intn(2) == 0 {
			for k := r.Intn(4); k > 0; k-- {
				b.WriteString(columnRunes[r.Intn(len(columnRunes))])
			}
			b.WriteString(columnLits[r.Intn(len(columnLits))])
		}
		for k := r.Intn(4); k > 0; k-- {
			b.WriteString(columnPieces[r.Intn(len(columnPieces))])
		}
		v := b.String()
		switch r.Intn(4) {
		case 0:
			v = v[:r.Intn(len(v)+1)]
		case 1:
			if raw != "" {
				v = raw[:r.Intn(len(raw)+1)]
			}
		}
		dict = append(dict, v)
	}
	return dict
}
