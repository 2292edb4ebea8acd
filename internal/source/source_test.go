package source

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pfd/internal/relation"
)

func TestCSVMaterializePreservesColumnOrder(t *testing.T) {
	src := NewCSV("Zip", strings.NewReader("zip,city,state\n90001,Los Angeles,CA\n60601,Chicago,IL\n"))
	tb, err := Materialize(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(tb.Cols, ","); got != "zip,city,state" {
		t.Errorf("column order = %q, want header order", got)
	}
	if tb.NumRows() != 2 || tb.Value(1, "city") != "Chicago" {
		t.Errorf("rows wrong: %d rows, city[1]=%q", tb.NumRows(), tb.Value(1, "city"))
	}
}

func TestCSVTuplesStreamsMaps(t *testing.T) {
	src := NewCSV("Zip", strings.NewReader("zip,city\n90001,LA\n60601,Chicago\n"))
	var got []Tuple
	for tu, err := range src.Tuples(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tu)
	}
	if len(got) != 2 || got[0]["zip"] != "90001" || got[1]["city"] != "Chicago" {
		t.Errorf("tuples = %v", got)
	}
}

func TestCSVJaggedRecordIsParseError(t *testing.T) {
	src := NewCSV("Zip", strings.NewReader("zip,city\n90001\n"))
	var gotErr error
	for _, err := range src.Tuples(context.Background()) {
		if err != nil {
			gotErr = err
		}
	}
	var pe *ParseError
	if !errors.As(gotErr, &pe) {
		t.Fatalf("jagged record error = %v, want *ParseError", gotErr)
	}
	if pe.Source != "Zip" || pe.Record != 2 {
		t.Errorf("ParseError = %+v, want Source=Zip Record=2", pe)
	}
}

func TestCSVReaderSourceIsSingleShot(t *testing.T) {
	src := NewCSV("Zip", strings.NewReader("zip\n90001\n"))
	if _, err := Materialize(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	_, err := Materialize(context.Background(), src)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("second materialize = %v, want *ParseError", err)
	}
}

func TestCSVFileReiterableAndErrorsCarryPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("zip,city\n90001,LA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := CSVFile("Zip", path)
	for i := 0; i < 2; i++ {
		tb, err := Materialize(context.Background(), src)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if tb.NumRows() != 1 {
			t.Fatalf("iteration %d: rows = %d", i, tb.NumRows())
		}
	}

	missing := filepath.Join(dir, "missing.csv")
	_, err := Materialize(context.Background(), CSVFile("Zip", missing))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("missing file = %v, want *ParseError", err)
	}
	if pe.Path != missing || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ParseError = %+v, want path %q wrapping fs.ErrNotExist", pe, missing)
	}
	if !strings.Contains(pe.Error(), "Zip") || !strings.Contains(pe.Error(), missing) {
		t.Errorf("message %q must name the table and the path", pe.Error())
	}
}

func TestJSONLScalarsAndNulls(t *testing.T) {
	in := `{"zip":"90001","pop":12345,"ok":true,"note":null}
{"zip":"60601","pop":9.5,"ok":false}
`
	src := NewJSONL("Zip", strings.NewReader(in))
	var got []Tuple
	for tu, err := range src.Tuples(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tu)
	}
	if len(got) != 2 {
		t.Fatalf("tuples = %v", got)
	}
	if got[0]["pop"] != "12345" || got[0]["ok"] != "true" {
		t.Errorf("scalar stringification wrong: %v", got[0])
	}
	if _, present := got[0]["note"]; present {
		t.Error("null must map to an absent key")
	}

	tb, err := Materialize(context.Background(), NewJSONL("Zip", strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	// Sorted union of the keys actually seen: the always-null "note"
	// never becomes a column.
	if got := strings.Join(tb.Cols, ","); got != "ok,pop,zip" {
		t.Errorf("columns = %q, want sorted union of present keys", got)
	}
}

func TestJSONLNestedValueIsParseError(t *testing.T) {
	src := NewJSONL("Zip", strings.NewReader(`{"zip":"1"}`+"\n"+`{"zip":{"a":1}}`+"\n"))
	var gotErr error
	n := 0
	for _, err := range src.Tuples(context.Background()) {
		if err != nil {
			gotErr = err
		} else {
			n++
		}
	}
	var pe *ParseError
	if !errors.As(gotErr, &pe) || pe.Record != 2 || n != 1 {
		t.Fatalf("nested value: err=%v tuples=%d, want *ParseError at record 2 after 1 tuple", gotErr, n)
	}
}

func TestTableSourceRoundTrip(t *testing.T) {
	tb := relation.New("T", "a", "b")
	tb.Append("1", "x")
	tb.Append("2", "y")
	src := FromTable(tb)
	if got := strings.Join(src.Columns(), ","); got != "a,b" {
		t.Errorf("columns = %q", got)
	}
	out, err := Materialize(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if out != tb {
		t.Error("TableSource must materialize to the wrapped table without copying")
	}
	n := 0
	for tu, err := range src.Tuples(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if tu["a"] == "" {
			t.Errorf("tuple missing a: %v", tu)
		}
		n++
	}
	if n != 2 {
		t.Errorf("tuples = %d", n)
	}
}

func TestChanSourceCancellation(t *testing.T) {
	ch := make(chan Tuple) // never closed
	src := FromChan("live", []string{"a"}, ch)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		ch <- Tuple{"a": "1"}
		cancel()
	}()
	var tuples int
	var gotErr error
	for tu, err := range src.Tuples(ctx) {
		if err != nil {
			gotErr = err
			break
		}
		_ = tu
		tuples++
	}
	if tuples != 1 || !errors.Is(gotErr, context.Canceled) {
		t.Fatalf("tuples=%d err=%v, want 1 tuple then context.Canceled", tuples, gotErr)
	}
}

func TestMaterializeCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Materialize(ctx, CSVFile("Zip", "/nonexistent-but-irrelevant.csv"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSmallBodyDecodeAllocs bounds the heap a 25-row ingest body costs
// to decode: csv.Reader and json.Decoder buffer their own input, so a
// request-sized body must not pay for a large read buffer.
func TestSmallBodyDecodeAllocs(t *testing.T) {
	var csvBody, jsonBody strings.Builder
	csvBody.WriteString("zip,city,state\n")
	for i := 0; i < 25; i++ {
		csvBody.WriteString("90001,Los Angeles,CA\n")
		jsonBody.WriteString(`{"zip":"90001","city":"Los Angeles","state":"CA"}` + "\n")
	}
	ctx := context.Background()
	drain := func(src Source) {
		for _, err := range src.Tuples(ctx) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	const limit = 64 << 10
	for _, tc := range []struct {
		name   string
		decode func()
	}{
		{"csv tuples", func() { drain(NewCSV("b", strings.NewReader(csvBody.String()))) }},
		{"csv table", func() {
			if _, err := NewCSV("b", strings.NewReader(csvBody.String())).ReadTable(ctx); err != nil {
				t.Fatal(err)
			}
		}},
		{"jsonl tuples", func() { drain(NewJSONL("b", strings.NewReader(jsonBody.String()))) }},
	} {
		if got := bytesPerRun(20, tc.decode); got >= limit {
			t.Errorf("%s: %d B per 25-row body, want < %d", tc.name, got, limit)
		}
	}
}

// bytesPerRun returns the mean heap bytes allocated by one call of fn.
func bytesPerRun(runs int, fn func()) uint64 {
	fn() // warm up lazily initialized package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
