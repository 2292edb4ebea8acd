package source

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"

	"pfd/internal/relation"
)

// errConsumed marks a second iteration of a single-shot source.
var errConsumed = errors.New("reader-backed source already consumed; use a file- or table-backed source for re-iteration")

// backing is the shared substrate of file- or reader-fed sources:
// file-backed sources reopen the path per iteration (re-iterable),
// reader-backed ones are single-shot.
type backing struct {
	name string
	path string
	r    io.Reader
	used bool
}

// open returns the backing reader and a cleanup func.
func (b *backing) open() (io.Reader, func(), error) {
	if b.path != "" {
		f, err := os.Open(b.path)
		if err != nil {
			return nil, nil, &ParseError{Source: b.name, Path: b.path, Err: err}
		}
		return f, func() { f.Close() }, nil
	}
	if b.used {
		return nil, nil, &ParseError{Source: b.name, Err: errConsumed}
	}
	b.used = true
	return b.r, func() {}, nil
}

// CSVSource reads header-first CSV, either from a file path
// (re-iterable: the file is reopened per iteration) or from an
// io.Reader (single-shot).
type CSVSource struct {
	backing
}

// NewCSV wraps a reader of header-first CSV. The source is
// single-shot: it can be iterated or materialized once.
func NewCSV(name string, r io.Reader) *CSVSource {
	return &CSVSource{backing{name: name, r: r}}
}

// CSVFile names a CSV file with a header row. The file is opened at
// iteration time and reopened on each iteration, so the source is
// re-iterable; an unopenable file surfaces as a *ParseError from the
// first record.
func CSVFile(name, path string) *CSVSource {
	return &CSVSource{backing{name: name, path: path}}
}

// Name returns the relation name.
func (s *CSVSource) Name() string { return s.name }

// Columns returns nil: the header is not read until iteration.
func (s *CSVSource) Columns() []string { return nil }

// Tuples streams the records as column->value maps. The CSV reader
// enforces the header's field count, so a jagged record terminates the
// sequence with a record-numbered *ParseError instead of surfacing
// later as a confusing per-tuple MissingColumnError.
func (s *CSVSource) Tuples(ctx context.Context) iter.Seq2[Tuple, error] {
	return func(yield func(Tuple, error) bool) {
		r, cleanup, err := s.open()
		if err != nil {
			yield(nil, err)
			return
		}
		defer cleanup()
		cr := csv.NewReader(r)
		cr.ReuseRecord = true
		header, err := cr.Read()
		if err == io.EOF {
			return
		}
		if err != nil {
			yield(nil, &ParseError{Source: s.name, Path: s.path, Record: 1,
				Err: fmt.Errorf("reading CSV header: %w", err)})
			return
		}
		cols := append([]string(nil), header...)
		for rec := 2; ; rec++ {
			if rec%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					yield(nil, err)
					return
				}
			}
			record, err := cr.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				yield(nil, &ParseError{Source: s.name, Path: s.path, Record: rec, Err: err})
				return
			}
			tuple := make(Tuple, len(cols))
			for j, c := range cols {
				tuple[c] = record[j]
			}
			if !yield(tuple, nil) {
				return
			}
		}
	}
}

// ReadTable materializes the CSV into a Table, preserving the header's
// column order. It streams record by record with the same periodic
// context checks as Tuples, so canceling mid-file on a large CSV
// returns promptly.
func (s *CSVSource) ReadTable(ctx context.Context) (*relation.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, cleanup, err := s.open()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err == io.EOF {
		return nil, &ParseError{Source: s.name, Path: s.path, Err: errors.New("csv has no header")}
	}
	if err != nil {
		return nil, &ParseError{Source: s.name, Path: s.path, Record: 1,
			Err: fmt.Errorf("reading CSV header: %w", err)}
	}
	t := relation.New(s.name, header...)
	for rec := 2; ; rec++ {
		if rec%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		record, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, &ParseError{Source: s.name, Path: s.path, Record: rec, Err: err}
		}
		if len(record) != len(t.Cols) {
			return nil, &ParseError{Source: s.name, Path: s.path, Record: rec,
				Err: fmt.Errorf("record has %d fields, want %d", len(record), len(t.Cols))}
		}
		t.Append(record...)
	}
}
