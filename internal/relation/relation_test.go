package relation

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := New("Name", "name", "gender")
	t.Append("John Charles", "M")
	t.Append("John Bosco", "M")
	t.Append("Susan Orlean", "F")
	t.Append("Susan Boyle", "M")
	return t
}

func TestTableBasics(t *testing.T) {
	tb := sampleTable()
	if tb.NumRows() != 4 || tb.NumCols() != 2 {
		t.Fatalf("size = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Col("gender") != 1 || tb.Col("missing") != -1 {
		t.Error("Col lookup wrong")
	}
	if tb.Value(2, "name") != "Susan Orlean" {
		t.Error("Value lookup wrong")
	}
	col := tb.Column("gender")
	if len(col) != 4 || col[3] != "M" {
		t.Error("Column wrong")
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong arity must panic")
		}
	}()
	sampleTable().Append("only-one")
}

func TestCloneIsDeep(t *testing.T) {
	tb := sampleTable()
	c := tb.Clone()
	c.SetAt(0, 0, "changed")
	if tb.At(0, 0) == "changed" {
		t.Error("Clone must deep-copy rows")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("Name", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() || back.Value(3, "name") != "Susan Boyle" {
		t.Error("CSV round trip lost data")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Error("empty csv must error")
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged csv must error")
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Row: 4, Col: "gender"}
	if c.String() != "r4[gender]" {
		t.Errorf("Cell.String = %q", c)
	}
}

func TestSortCells(t *testing.T) {
	cells := []Cell{{2, "b"}, {1, "z"}, {1, "a"}}
	SortCells(cells)
	if cells[0] != (Cell{1, "a"}) || cells[2] != (Cell{2, "b"}) {
		t.Errorf("SortCells order wrong: %v", cells)
	}
}

func TestProfileQuantitative(t *testing.T) {
	// Heights: variable-length numbers -> quantitative, pruned.
	p := ProfileColumn("height", []string{"1.75", "1.8", "165", "2"})
	if !p.Quantitative || p.Code {
		t.Errorf("height profile = %+v, want quantitative", p)
	}
	// Zips: uniform-length digit codes -> kept as code.
	p = ProfileColumn("zip", []string{"90001", "90002", "10458", "60603"})
	if p.Quantitative || !p.Code {
		t.Errorf("zip profile = %+v, want code", p)
	}
	if p.Mode != ModeNGrams {
		t.Errorf("zip mode = %v, want ngrams", p.Mode)
	}
	// Phones with two lengths still count as codes.
	p = ProfileColumn("phone", []string{"8505467600", "6073771300", "850546760"})
	if !p.Code {
		t.Errorf("phone profile = %+v, want code", p)
	}
}

func TestProfileTokenize(t *testing.T) {
	p := ProfileColumn("name", []string{"John Charles", "Susan Boyle", "Noor Wagdi"})
	if p.Mode != ModeTokenize || p.Separator != ' ' {
		t.Errorf("name profile = %+v, want tokenize on space", p)
	}
	p = ProfileColumn("gender", []string{"M", "F", "M"})
	if p.Mode != ModeNGrams {
		t.Errorf("gender profile = %+v, want ngrams", p)
	}
	p = ProfileColumn("empty", []string{"", ""})
	if p.Quantitative {
		t.Errorf("empty column must not be quantitative")
	}
}

func TestProfileTable(t *testing.T) {
	ps := ProfileTable(sampleTable())
	if len(ps) != 2 || ps[0].Name != "name" || ps[1].Name != "gender" {
		t.Errorf("ProfileTable = %+v", ps)
	}
}

func TestTokenize(t *testing.T) {
	toks, offs := Tokenize("John Charles")
	if len(toks) != 2 || toks[0] != "John" || toks[1] != "Charles" {
		t.Errorf("tokens = %v", toks)
	}
	if offs[0] != 0 || offs[1] != 5 {
		t.Errorf("offsets = %v", offs)
	}
	toks, _ = Tokenize("F-9-107")
	if len(toks) != 3 || toks[0] != "F" || toks[2] != "107" {
		t.Errorf("tokens = %v", toks)
	}
	toks, _ = Tokenize("--")
	if len(toks) != 0 {
		t.Errorf("separator-only value must have no tokens, got %v", toks)
	}
	toks, offs = Tokenize("solo")
	if len(toks) != 1 || toks[0] != "solo" || offs[0] != 0 {
		t.Errorf("single token wrong: %v %v", toks, offs)
	}
}

func TestNGrams(t *testing.T) {
	gs := NGrams("90001", 0)
	if len(gs) != 5 || gs[0] != "9" || gs[2] != "900" || gs[4] != "90001" {
		t.Errorf("ngrams = %v", gs)
	}
	gs = NGrams("90001", 3)
	if len(gs) != 3 || gs[2] != "900" {
		t.Errorf("capped ngrams = %v", gs)
	}
	if NGrams("", 0) != nil {
		t.Error("empty value must yield no grams")
	}
}

func TestIsNumeric(t *testing.T) {
	for _, s := range []string{"123", "-5", "+7", "3.14", "0"} {
		if !isNumeric(s) {
			t.Errorf("isNumeric(%q) = false", s)
		}
	}
	for _, s := range []string{"", "abc", "1a", "1.2.3", ".", "-"} {
		if isNumeric(s) {
			t.Errorf("isNumeric(%q) = true", s)
		}
	}
}
