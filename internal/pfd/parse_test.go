package pfd

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pfd/internal/pattern"
)

func TestParseCellWildcard(t *testing.T) {
	for _, src := range []string{"_", "⊥"} {
		c, err := ParseCell(src)
		if err != nil {
			t.Fatalf("ParseCell(%q): %v", src, err)
		}
		if !c.IsWildcard() {
			t.Fatalf("ParseCell(%q) = %s, want wildcard", src, c)
		}
	}
}

func TestParseCellBareConstant(t *testing.T) {
	c, err := ParseCell("M")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Constant(); !ok || v != "M" {
		t.Fatalf("bare constant parsed to %s (constant %q, %v)", c, v, ok)
	}
}

func TestParseCellUnconstrainedNormalizes(t *testing.T) {
	// A pattern with no explicit region compares whole values; parsing
	// makes that explicit, and the result is a parse/render fixpoint.
	c, err := ParseCell(`\D{5}`)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsWildcard() || !c.Pattern.Constrained() {
		t.Fatalf("want fully-constrained pattern, got %s", c)
	}
	again, err := ParseCell(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(again) {
		t.Fatalf("not a fixpoint: %s -> %s", c, again)
	}
}

func TestParseTableauRowPaperExamples(t *testing.T) {
	rel, lhs, rhs, row, err := ParseTableauRow(`Zip([zip = (900)\D{2}] -> [city = Los\ Angeles])`)
	if err != nil {
		t.Fatal(err)
	}
	if rel != "Zip" || len(lhs) != 1 || lhs[0] != "zip" || rhs != "city" {
		t.Fatalf("parsed shape rel=%q lhs=%v rhs=%q", rel, lhs, rhs)
	}
	if v, ok := row.RHS.Constant(); !ok || v != "Los Angeles" {
		t.Fatalf("RHS constant = %q, %v", v, ok)
	}
	if row.LHS[0].Match("90011") != true || row.LHS[0].Match("60601") != false {
		t.Fatal("LHS pattern semantics wrong after parse")
	}
}

func TestParseTableauRowMultiLHS(t *testing.T) {
	rel, lhs, rhs, row, err := ParseTableauRow(`R([a = (\D{3})\D{2}, b = _] -> [c = (\LU+)])`)
	if err != nil {
		t.Fatal(err)
	}
	if rel != "R" || strings.Join(lhs, ",") != "a,b" || rhs != "c" {
		t.Fatalf("parsed shape rel=%q lhs=%v rhs=%q", rel, lhs, rhs)
	}
	if !row.LHS[1].IsWildcard() {
		t.Fatal("second LHS cell should be wildcard")
	}
}

func TestParseTableauRowRejects(t *testing.T) {
	for _, src := range []string{
		"",
		"R",
		"R()",
		"R([a = _])",                   // missing ->
		"R([] -> [c = _])",             // empty LHS
		"R([a = _] -> [b = _, c = _])", // multi-RHS: not normal form
		"R([a = _,] -> [c = _])",       // empty item
		"R([a = ] -> [c = _])",         // empty cell
		`R([a = (] -> [c = _])`,        // bad pattern
	} {
		if _, _, _, _, err := ParseTableauRow(src); err == nil {
			t.Errorf("ParseTableauRow(%q): want error", src)
		}
	}
}

func TestParseLineBareAttribute(t *testing.T) {
	// A bare attribute is the unnamed variable '_', on either side and
	// for ParseTableauRow as for ParseLine.
	_, lhs, rhs, row, err := ParseTableauRow("R([a] -> [c = _])")
	if err != nil {
		t.Fatal(err)
	}
	if len(lhs) != 1 || lhs[0] != "a" || rhs != "c" || !row.LHS[0].IsWildcard() {
		t.Fatalf("parsed lhs=%v rhs=%q row=%v", lhs, rhs, row)
	}
	l, err := ParseLine(`R([a, b = x] -> [c, d = (\D)\D])`)
	if err != nil {
		t.Fatal(err)
	}
	if want := `R([a = _, b = (x)] -> [c = _, d = (\D)\D])`; l.String() != want {
		t.Fatalf("printed %s, want %s", l, want)
	}
}

func TestParsePFDMultiRow(t *testing.T) {
	// Canonical rendering: constants carry their constrained parens.
	src := `Zip([zip = (900)\D{2}] -> [city = (Los\ Angeles)]); Zip([zip = (606)\D{2}] -> [city = (Chicago)])`
	p, err := ParsePFD(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tableau) != 2 || p.Relation != "Zip" || p.RHS != "city" {
		t.Fatalf("parsed %s", p)
	}
	if p.String() != src {
		t.Fatalf("render drifted:\n got %s\nwant %s", p.String(), src)
	}
	// The hand-written forms (bare constant, unparenthesized escape)
	// parse to the same PFD.
	hand := `Zip([zip = (900)\D{2}] -> [city = Los\ Angeles]); Zip([zip = (606)\D{2}] -> [city = Chicago])`
	q, err := ParsePFD(hand)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Equal(p) {
		t.Fatalf("hand-written form parsed differently:\n %s\n %s", q, p)
	}
}

func TestParsePFDEmptyTableau(t *testing.T) {
	p := MustNew("R", []string{"a", "b"}, "c")
	got, err := ParsePFD(p.String())
	if err != nil {
		t.Fatalf("ParsePFD(%q): %v", p.String(), err)
	}
	if !got.Equal(p) {
		t.Fatalf("empty-tableau round trip: %s != %s", got, p)
	}
}

func TestParsePFDRejectsMixedRows(t *testing.T) {
	for _, src := range []string{
		`R([a = _] -> [c = x]); S([a = _] -> [c = y])`, // relation changes
		`R([a = _] -> [c = x]); R([b = _] -> [c = y])`, // LHS changes
		`R([a = _] -> [c = x]); R([a = _] -> [d = y])`, // RHS changes
	} {
		if _, err := ParsePFD(src); err == nil {
			t.Errorf("ParsePFD(%q): want error", src)
		}
	}
}

func TestParsePFDEscapedDelimiters(t *testing.T) {
	// Constants carrying the grammar's own delimiters must round-trip:
	// commas, brackets, semicolons, spaces, underscores, parens.
	for _, v := range []string{
		"Washington, DC",
		"a;b",
		"x[1]",
		"snake_case value",
		"lit(eral)",
		`back\slash`,
		"{3,5} braces",
	} {
		p := MustNew("R", []string{"a"}, "b",
			Row{LHS: []Cell{Pat(pattern.Constant(v))}, RHS: Pat(pattern.Constant(v))})
		got, err := ParsePFD(p.String())
		if err != nil {
			t.Fatalf("constant %q: ParsePFD(%q): %v", v, p.String(), err)
		}
		if !got.Equal(p) {
			t.Fatalf("constant %q: round trip %s != %s", v, got, p)
		}
	}
}

func TestParsePFDDelimiterNames(t *testing.T) {
	// Relation and attribute names carrying the grammar's own
	// delimiters (a quoted CSV header can contain any of these) must
	// round-trip through the escaped rendering — for populated and
	// empty tableaux alike.
	p := MustNew("data (1);v2", []string{"a,b", "x=y", "c[0]"}, "out)",
		Row{LHS: []Cell{Wildcard(), Pat(pattern.Constant("v")), Wildcard()}, RHS: Pat(pattern.Constant("w"))},
		Row{LHS: []Cell{Pat(pattern.Constant("q")), Wildcard(), Wildcard()}, RHS: Wildcard()})
	got, err := ParsePFD(p.String())
	if err != nil {
		t.Fatalf("ParsePFD(%q): %v", p.String(), err)
	}
	if !got.Equal(p) {
		t.Fatalf("round trip drifted:\n in  %s\n out %s", p, got)
	}
	empty := MustNew("data (1)", []string{"a,b"}, "c=d")
	got, err = ParsePFD(empty.String())
	if err != nil {
		t.Fatalf("ParsePFD(%q): %v", empty.String(), err)
	}
	if !got.Equal(empty) {
		t.Fatalf("empty-form round trip drifted:\n in  %s\n out %s", empty, got)
	}
	// Braces count toward splitTopLevel depth, and padding around names
	// is trimmed on parse — both must be escaped to survive. A multi-row
	// tableau forces the ';' split the braces would otherwise corrupt;
	// the trailing-space attribute would otherwise silently become "zip".
	weird := MustNew("a{b", []string{"zip ", " city", "br{ce}"}, "out",
		Row{LHS: []Cell{Wildcard(), Wildcard(), Wildcard()}, RHS: Pat(pattern.Constant("x"))},
		Row{LHS: []Cell{Pat(pattern.Constant("y")), Wildcard(), Wildcard()}, RHS: Wildcard()})
	got, err = ParsePFD(weird.String())
	if err != nil {
		t.Fatalf("ParsePFD(%q): %v", weird.String(), err)
	}
	if !got.Equal(weird) {
		t.Fatalf("brace/space round trip drifted:\n in  %s\n out %s", weird, got)
	}
}

func TestParseCellEmptyConstant(t *testing.T) {
	// The empty constant (matches exactly "") renders '()' and parses
	// back; it is neither the wildcard nor an error.
	c := Pat(pattern.Constant(""))
	if c.String() != "()" {
		t.Fatalf("empty constant renders %q, want ()", c.String())
	}
	got, err := ParseCell(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.IsWildcard() || !got.Equal(c) {
		t.Fatalf("ParseCell(\"()\") = %s", got)
	}
	if v, ok := got.Constant(); !ok || v != "" {
		t.Fatalf("Constant() = %q, %v", v, ok)
	}
}

// randomRoundTripPFD generates PFDs exercising the full rendering
// grammar: 1-3 LHS attributes, 1-4 tableau rows, wildcards, variable
// patterns, empty constants, and constants with delimiter and escape
// runes.
func randomRoundTripPFD(r *rand.Rand) *PFD {
	constants := []string{
		"M", "Los Angeles", "Washington, DC", "St. John's",
		"a_b", "semi;colon", "[brack]et", "par(en)", `esc\ape`,
		"12345", "⊥ unicode ✓", "spaced  twice", "",
	}
	variable := []string{
		`(\D{3})\D{2}`, `(900)\D{2}`, `(\LU\LL*\ )\A*`, `(\A+)`,
		`(\LU{2})\D+`, `(\D{1,3})\S*`, `(\LL+)\D{2,}`,
	}
	randomCell := func() Cell {
		switch r.Intn(4) {
		case 0:
			return Wildcard()
		case 1:
			return Pat(pattern.MustParse(variable[r.Intn(len(variable))]))
		default:
			return Pat(pattern.Constant(constants[r.Intn(len(constants))]))
		}
	}
	attrs := []string{"zip", "city,region", "st=ate", "na(me)"}
	nLHS := 1 + r.Intn(3)
	lhs := append([]string(nil), attrs[:nLHS]...)
	rhs := "gender"
	relations := []string{"Rel", "data (1)", "r;2"}
	relation := relations[r.Intn(len(relations))]
	var rows []Row
	for k := 0; k < 1+r.Intn(4); k++ {
		cells := make([]Cell, nLHS)
		for i := range cells {
			cells[i] = randomCell()
		}
		rows = append(rows, Row{LHS: cells, RHS: randomCell()})
	}
	return MustNew(relation, lhs, rhs, rows...)
}

func TestQuickParsePFDRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		p := randomRoundTripPFD(r)
		got, err := ParsePFD(p.String())
		if err != nil {
			t.Logf("ParsePFD(%q): %v", p.String(), err)
			return false
		}
		if !got.Equal(p) {
			t.Logf("round trip drifted:\n in  %s\n out %s", p, got)
			return false
		}
		if got.String() != p.String() {
			t.Logf("render drifted:\n in  %s\n out %s", p.String(), got.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseTableauRowRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		p := randomRoundTripPFD(r)
		// Each rendered row parses back to the same relation/FD/cells.
		for i, part := range strings.Split(p.String(), "; ") {
			rel, lhs, rhs, row, err := ParseTableauRow(part)
			if err != nil {
				t.Logf("row %d %q: %v", i, part, err)
				return false
			}
			if rel != p.Relation || rhs != p.RHS || !slices.Equal(lhs, p.LHS) {
				return false
			}
			if !row.RHS.Equal(p.Tableau[i].RHS) {
				return false
			}
			for j, c := range row.LHS {
				if !c.Equal(p.Tableau[i].LHS[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
