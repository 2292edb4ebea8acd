package relation

import "testing"

// TestDictionaryInterning pins the columnar core's invariants: equal
// values share a code, dictionaries record first-appended order, and
// counts track live multiplicity.
func TestDictionaryInterning(t *testing.T) {
	tb := New("T", "c")
	for _, v := range []string{"a", "b", "a", "a", "c", "b"} {
		tb.Append(v)
	}
	if got := tb.Dict(0); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("dict = %v", got)
	}
	if c := tb.DictCounts(0); c[0] != 3 || c[1] != 2 || c[2] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if tb.Code(0, 0) != tb.Code(2, 0) || tb.Code(0, 0) == tb.Code(1, 0) {
		t.Fatalf("codes = %v", tb.Codes(0))
	}
	for r, want := range []string{"a", "b", "a", "a", "c", "b"} {
		if tb.At(r, 0) != want {
			t.Fatalf("At(%d) = %q, want %q", r, tb.At(r, 0), want)
		}
	}
}

// TestSetRetiresAndExtends: rewriting cells appends to the dictionary
// (never removes), retires fully-replaced values to count zero, and
// reuses codes when a value returns.
func TestSetRetiresAndExtends(t *testing.T) {
	tb := New("T", "c")
	tb.Append("x")
	tb.Append("x")
	tb.Set(0, "c", "y")
	if got := tb.Dict(0); len(got) != 2 || got[1] != "y" {
		t.Fatalf("dict = %v", got)
	}
	if c := tb.DictCounts(0); c[0] != 1 || c[1] != 1 {
		t.Fatalf("counts = %v", c)
	}
	tb.Set(1, "c", "y") // retire "x" entirely
	if c := tb.DictCounts(0); c[0] != 0 || c[1] != 2 {
		t.Fatalf("counts after retire = %v", c)
	}
	if got := tb.Dict(0); len(got) != 2 {
		t.Fatalf("dictionary must be append-only, got %v", got)
	}
	tb.Set(0, "c", "x") // the retired value returns: same code
	if tb.At(0, 0) != "x" || tb.Code(0, 0) != 0 {
		t.Fatalf("reintroduced value: At=%q code=%d", tb.At(0, 0), tb.Code(0, 0))
	}
	if c := tb.DictCounts(0); c[0] != 1 || c[1] != 1 {
		t.Fatalf("counts after return = %v", c)
	}
}

// TestEmptyAndInvalidUTF8Cells: empty strings and invalid UTF-8 are
// ordinary dictionary entries — interning is byte-exact.
func TestEmptyAndInvalidUTF8Cells(t *testing.T) {
	bad := "90\xff01" // invalid UTF-8 byte mid-value
	tb := New("T", "c")
	tb.Append("")
	tb.Append(bad)
	tb.Append("")
	tb.Append(bad)
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if len(tb.Dict(0)) != 2 {
		t.Fatalf("dict = %q", tb.Dict(0))
	}
	if tb.At(1, 0) != bad || tb.At(3, 0) != bad {
		t.Fatalf("invalid UTF-8 not preserved byte-exact: %q", tb.At(1, 0))
	}
	if tb.Code(0, 0) != tb.Code(2, 0) || tb.Code(1, 0) != tb.Code(3, 0) {
		t.Fatal("equal cells must share codes")
	}
	prof := ProfileColumn("c", tb.Column("c"))
	if prof.Distinct != 1 { // "" is not counted as a distinct value
		t.Fatalf("Distinct = %d, want 1 (empty cells excluded)", prof.Distinct)
	}
}

// TestAppendRowTo covers the zero-allocation row iteration primitive.
func TestAppendRowTo(t *testing.T) {
	tb := New("T", "a", "b")
	tb.Append("1", "2")
	tb.Append("3", "4")
	buf := make([]string, 0, 2)
	buf = tb.AppendRowTo(buf[:0], 1)
	if len(buf) != 2 || buf[0] != "3" || buf[1] != "4" {
		t.Fatalf("AppendRowTo = %v", buf)
	}
	if got := tb.Row(0); len(got) != 2 || got[0] != "1" {
		t.Fatalf("Row(0) = %v", got)
	}
}
