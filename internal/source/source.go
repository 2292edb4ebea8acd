// Package source is the single ingestion layer of the v2 API: every
// way tuples enter the system — CSV files, JSONL streams, in-memory
// tables, live channels — is a Source, and every entry point (batch
// discovery, batch detection, the incremental Checker, the stream
// engine) consumes Sources instead of growing its own reader.
//
// A Source yields tuples as an iter.Seq2[Tuple, error] sequence driven
// by a context: implementations observe ctx periodically and terminate
// the sequence with ctx.Err() when it is canceled, so long ingests stay
// cancellable without per-tuple channel plumbing. Malformed input
// surfaces as a *ParseError carrying the source name, the file path
// when known, and the 1-based record number.
package source

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"pfd/internal/relation"
)

// A Tuple is one record: column name -> value. All values are strings,
// as everywhere in this codebase — patterns operate on the textual
// representation.
type Tuple = map[string]string

// ctxCheckEvery is how many records a source processes between context
// checks: frequent enough for prompt cancellation, rare enough to keep
// the per-record cost negligible.
const ctxCheckEvery = 512

// A Source yields the tuples of one relation.
type Source interface {
	// Name is the relation name used in reports and error messages.
	Name() string
	// Columns returns the column names in order when they are known
	// before iteration (tables, channels with a declared schema), or
	// nil when they only emerge during iteration (CSV headers, JSONL
	// keys).
	Columns() []string
	// Tuples returns an iterator over the records, in order. A non-nil
	// error terminates the sequence: a *ParseError for malformed
	// input, or ctx.Err() when the context is canceled mid-iteration.
	// The consumer may stop early by breaking out of the range loop.
	//
	// Whether a Source can be iterated more than once is
	// implementation-defined: file- and table-backed sources are
	// re-iterable, reader- and channel-backed ones are single-shot
	// (a second iteration yields a *ParseError).
	Tuples(ctx context.Context) iter.Seq2[Tuple, error]
}

// TableReader is implemented by sources that can produce the relation
// directly, preserving column order. Materialize uses it as a fast
// path; consumers that need a *relation.Table should call Materialize
// rather than type-asserting themselves.
type TableReader interface {
	ReadTable(ctx context.Context) (*relation.Table, error)
}

// A ParseError reports malformed input from a source.
type ParseError struct {
	// Source is the relation name the source was created with.
	Source string
	// Path is the backing file when the source is file-backed, "".
	Path string
	// Record is the 1-based record number (counting the header for
	// CSV), or 0 for container-level failures such as an unopenable
	// file.
	Record int
	// Err is the underlying cause.
	Err error
}

func (e *ParseError) Error() string {
	loc := e.Source
	if e.Path != "" {
		loc = fmt.Sprintf("%s (%s)", e.Source, e.Path)
	}
	if e.Record > 0 {
		return fmt.Sprintf("source %s: record %d: %v", loc, e.Record, e.Err)
	}
	return fmt.Sprintf("source %s: %v", loc, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// Materialize drains src into a Table. Sources that implement
// TableReader (CSV, tables) keep their native column order; otherwise
// the columns are the sorted union of the keys seen across all tuples,
// with absent keys materialized as "".
func Materialize(ctx context.Context, src Source) (*relation.Table, error) {
	if tr, ok := src.(TableReader); ok {
		return tr.ReadTable(ctx)
	}
	if cols := src.Columns(); cols != nil {
		t := relation.New(src.Name(), cols...)
		for tuple, err := range src.Tuples(ctx) {
			if err != nil {
				return nil, err
			}
			row := make([]string, len(cols))
			for i, c := range cols {
				row[i] = tuple[c]
			}
			t.Append(row...)
		}
		return t, ctx.Err()
	}
	// Columns unknown until the stream ends: buffer, then union.
	var buf []Tuple
	for tuple, err := range src.Tuples(ctx) {
		if err != nil {
			return nil, err
		}
		buf = append(buf, tuple)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var cols []string
	for _, tu := range buf {
		for k := range tu {
			if !seen[k] {
				seen[k] = true
				cols = append(cols, k)
			}
		}
	}
	sort.Strings(cols)
	t := relation.New(src.Name(), cols...)
	for _, tu := range buf {
		row := make([]string, len(cols))
		for i, c := range cols {
			row[i] = tu[c]
		}
		t.Append(row...)
	}
	return t, nil
}
