// Package relation provides the relational substrate the paper's
// algorithms run on: string-typed tables with named columns, CSV I/O,
// cell addressing, and the column profiling of Sections 4.3 and 5.4
// (quantitative-column pruning, code detection, tokenizer selection).
package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
)

// A column is one dictionary-encoded attribute: the distinct values in
// first-appended order, a per-row code vector indexing into the
// dictionary, and the live multiplicity of each code. Real tables have
// far fewer distinct values than rows, so everything expensive that
// runs per value (pattern matching, tokenization, profiling) runs once
// per dictionary entry and is fanned out to rows through the codes.
type column struct {
	dict   []string          // code -> value
	counts []int             // code -> number of rows currently holding it
	lookup map[string]uint32 // value -> code
	codes  []uint32          // row -> code
}

// intern returns the code for v, adding it to the dictionary on first
// sight. A nil lookup means "not built yet" (snapshot loads defer it —
// read-only consumers never pay for the map) and is rebuilt from the
// dictionary here, on the first write that needs it.
func (c *column) intern(v string) uint32 {
	if c.lookup == nil {
		c.rebuildLookup()
	}
	if code, ok := c.lookup[v]; ok {
		return code
	}
	code := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	c.counts = append(c.counts, 0)
	c.lookup[v] = code
	return code
}

// rebuildLookup derives the value→code map from the dictionary, which
// holds each value once.
func (c *column) rebuildLookup() {
	c.lookup = make(map[string]uint32, len(c.dict))
	for code, v := range c.dict {
		c.lookup[v] = uint32(code)
	}
}

func (c *column) append(v string) {
	code := c.intern(v)
	c.codes = append(c.codes, code)
	c.counts[code]++
}

func (c *column) set(row int, v string) {
	old := c.codes[row]
	code := c.intern(v)
	if code == old {
		return
	}
	c.counts[old]--
	c.counts[code]++
	c.codes[row] = code
}

func (c *column) clone() column {
	cp := column{
		dict:   append([]string(nil), c.dict...),
		counts: append([]int(nil), c.counts...),
		codes:  append([]uint32(nil), c.codes...),
	}
	if c.lookup != nil {
		cp.lookup = make(map[string]uint32, len(c.lookup))
		for v, code := range c.lookup {
			cp.lookup[v] = code
		}
	}
	// A nil lookup (deferred by a snapshot load) stays nil in the copy
	// and is rebuilt on its first intern.
	return cp
}

// A Table is a named relation instance: a header of column names and
// rows of string cells. All attribute values are strings, as in the
// paper — patterns operate on the textual representation.
//
// Storage is columnar and dictionary-encoded (see column): the row-major
// view of earlier revisions survives as the At/Value/Row accessors, so
// pfd.Violation coordinates and CSV column order are unchanged, while
// per-distinct access (Dict/Codes/DictCounts) lets the pattern layers
// match each distinct value once instead of once per row.
type Table struct {
	Name string
	Cols []string

	cols  []column
	nrows int

	colIdx map[string]int
}

// New creates an empty table with the given name and columns.
func New(name string, cols ...string) *Table {
	t := &Table{Name: name, Cols: append([]string(nil), cols...)}
	t.cols = make([]column, len(t.Cols))
	for i := range t.cols {
		t.cols[i].lookup = map[string]uint32{}
	}
	t.reindex()
	return t
}

func (t *Table) reindex() {
	t.colIdx = make(map[string]int, len(t.Cols))
	for i, c := range t.Cols {
		t.colIdx[c] = i
	}
}

// Append adds a row. It panics if the arity is wrong, which is always a
// programming error in this codebase.
func (t *Table) Append(row ...string) {
	if len(row) != len(t.Cols) {
		panic(fmt.Sprintf("relation: row arity %d != %d columns", len(row), len(t.Cols)))
	}
	for i, v := range row {
		t.cols[i].append(v)
	}
	t.nrows++
}

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return len(t.Cols) }

// Col returns the index of the named column, or -1.
func (t *Table) Col(name string) int {
	if t.colIdx == nil {
		t.reindex()
	}
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// MustCol is Col but panics on unknown names.
func (t *Table) MustCol(name string) int {
	i := t.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("relation: no column %q in table %q", name, t.Name))
	}
	return i
}

// Value returns the cell at (row, named column).
func (t *Table) Value(row int, col string) string {
	return t.At(row, t.MustCol(col))
}

// At returns the cell at (row, column index) — the positional
// counterpart of Value.
func (t *Table) At(row, col int) string {
	c := &t.cols[col]
	return c.dict[c.codes[row]]
}

// Code returns the dictionary code of the cell at (row, column index).
// Two cells of one column hold equal strings iff their codes are equal.
func (t *Table) Code(row, col int) uint32 { return t.cols[col].codes[row] }

// Codes returns column col's per-row code vector. The slice is shared
// with the table — callers must treat it as read-only.
func (t *Table) Codes(col int) []uint32 { return t.cols[col].codes }

// Dict returns column col's dictionary: Dict(col)[Code(row, col)] is the
// value at (row, col). Entries whose count has dropped to zero (after
// Set rewrote every occurrence) remain in the dictionary as retired
// values; weight per-distinct work by DictCounts to skip them. The
// slice is shared with the table — callers must treat it as read-only.
func (t *Table) Dict(col int) []string { return t.cols[col].dict }

// DictCounts returns the live multiplicity of each dictionary entry of
// column col (how many rows currently hold it). The slice is shared
// with the table — callers must treat it as read-only.
func (t *Table) DictCounts(col int) []int { return t.cols[col].counts }

// Set rewrites the cell at (row, named column).
func (t *Table) Set(row int, col string, v string) {
	t.SetAt(row, t.MustCol(col), v)
}

// SetAt rewrites the cell at (row, column index).
func (t *Table) SetAt(row, col int, v string) {
	t.cols[col].set(row, v)
}

// Row materializes one tuple as a fresh slice in column order.
func (t *Table) Row(row int) []string {
	return t.AppendRowTo(nil, row)
}

// AppendRowTo appends the cells of one tuple to buf in column order,
// reusing buf's capacity — the zero-allocation row iteration primitive.
func (t *Table) AppendRowTo(buf []string, row int) []string {
	for i := range t.cols {
		c := &t.cols[i]
		buf = append(buf, c.dict[c.codes[row]])
	}
	return buf
}

// Column returns a copy of all values of the named column.
func (t *Table) Column(name string) []string {
	c := &t.cols[t.MustCol(name)]
	out := make([]string, len(c.codes))
	for r, code := range c.codes {
		out[r] = c.dict[code]
	}
	return out
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := New(t.Name, t.Cols...)
	c.nrows = t.nrows
	for i := range t.cols {
		c.cols[i] = t.cols[i].clone()
	}
	return c
}

// NewFromColumns assembles a table directly from dictionary-encoded
// columns: per column a dictionary (code -> value, append-order) and a
// per-row code vector. It is the constructor for tables whose columnar
// representation already exists — the out-of-core driver stitches
// projected tables together from a merged global dictionary plus
// remapped chunk code vectors without ever re-interning a string.
//
// Each dictionary must hold each value once. The dict and codes
// slices are adopted, not copied: the caller must
// not mutate them afterwards, and the table must be treated as
// read-only (Append/Set would alias the caller's dictionary). Counts
// are rebuilt from the codes; the value→code lookup is left nil and
// rebuilt lazily like a snapshot load. Codes are bounds-checked
// against their dictionary so a bad remap surfaces here, not as a
// panic deep inside a kernel.
func NewFromColumns(name string, cols []string, dicts [][]string, codes [][]uint32) (*Table, error) {
	if len(cols) != len(dicts) || len(cols) != len(codes) {
		return nil, fmt.Errorf("relation: NewFromColumns %q: %d columns, %d dicts, %d code vectors",
			name, len(cols), len(dicts), len(codes))
	}
	nrows := 0
	if len(codes) > 0 {
		nrows = len(codes[0])
	}
	t := &Table{Name: name, Cols: append([]string(nil), cols...)}
	t.cols = make([]column, len(cols))
	for i := range cols {
		if len(codes[i]) != nrows {
			return nil, fmt.Errorf("relation: NewFromColumns %q: column %q has %d rows, column %q has %d",
				name, cols[i], len(codes[i]), cols[0], nrows)
		}
		counts := make([]int, len(dicts[i]))
		for r, code := range codes[i] {
			if int(code) >= len(dicts[i]) {
				return nil, fmt.Errorf("relation: NewFromColumns %q: column %q row %d: code %d out of range (dict has %d)",
					name, cols[i], r, code, len(dicts[i]))
			}
			counts[code]++
		}
		t.cols[i] = column{
			dict:   dicts[i],
			counts: counts,
			codes:  codes[i],
		}
	}
	t.nrows = nrows
	t.reindex()
	return t, nil
}

// A Cell addresses one value of the table, for violation reporting.
type Cell struct {
	Row int
	Col string
}

// String renders the cell like "r4[gender]", matching the paper's notation.
func (c Cell) String() string { return fmt.Sprintf("r%d[%s]", c.Row, c.Col) }

// SortCells orders cells by row then column for deterministic output.
func SortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
}

// ReadCSV loads a table from CSV with a header line.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: reading csv for %q: %w", name, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("relation: csv for %q has no header", name)
	}
	t := New(name, recs[0]...)
	for i, rec := range recs[1:] {
		if len(rec) != len(t.Cols) {
			return nil, fmt.Errorf("relation: csv row %d has %d fields, want %d", i+2, len(rec), len(t.Cols))
		}
		t.Append(rec...)
	}
	return t, nil
}

// WriteCSV writes the table as CSV with a header line.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Cols); err != nil {
		return err
	}
	buf := make([]string, 0, len(t.Cols))
	for row := 0; row < t.nrows; row++ {
		buf = t.AppendRowTo(buf[:0], row)
		if err := cw.Write(buf); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
