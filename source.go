package pfd

import (
	"context"
	"io"

	"pfd/internal/relation"
	"pfd/internal/source"
)

// Typed .pfdt snapshot load failures, re-exported so callers can
// errors.Is-match the cause behind the *ParseError that
// FromSnapshotFile sources return and the direct error that
// LoadSnapshotFile returns.
// The version policy mirrors the Ruleset JSON envelope: readers accept
// format versions 1 through SnapshotVersion and reject newer ones with
// ErrSnapshotVersion (before the checksum verdict, so "upgrade" is
// reported rather than "corrupt").
var (
	ErrSnapshotMagic     = relation.ErrSnapshotMagic
	ErrSnapshotVersion   = relation.ErrSnapshotVersion
	ErrSnapshotChecksum  = relation.ErrSnapshotChecksum
	ErrSnapshotTruncated = relation.ErrSnapshotTruncated
	ErrSnapshotCorrupt   = relation.ErrSnapshotCorrupt
)

// SnapshotVersion is the .pfdt snapshot format version this build
// writes (see Table.WriteSnapshotFile and FromSnapshotFile).
const SnapshotVersion = relation.SnapshotVersion

// Tuple is one record: column name -> value.
type Tuple = source.Tuple

// Source is how tuples enter every v2 entry point: Discover, Detect,
// Validate, and RepairToFixpoint all consume Sources, so CSV files,
// JSONL streams, in-memory tables, and live channels are
// interchangeable. See the constructors FromCSV, FromCSVFile,
// FromJSONL, FromJSONLFile, FromSnapshotFile, FromTable, and
// FromTuples.
type Source = source.Source

// ParseError reports malformed input from a Source: it carries the
// relation name, the file path when known, and the 1-based record
// number, and unwraps to the underlying cause.
type ParseError = source.ParseError

// FromCSV wraps a reader of header-first CSV as a Source. The source
// is single-shot: it can be iterated or materialized once.
func FromCSV(name string, r io.Reader) Source { return source.NewCSV(name, r) }

// FromCSVFile names a CSV file with a header row as a Source. The file
// is opened at iteration time and the source is re-iterable.
func FromCSVFile(name, path string) Source { return source.CSVFile(name, path) }

// FromJSONL wraps a reader of JSONL (one flat JSON object per line) as
// a Source. Non-string scalars are stringified; nested values are
// *ParseError failures; an explicit null is an absent key — on the
// streaming path (Validate, the stream engine) a null in a referenced column
// therefore surfaces as a *MissingColumnError, while batch entry
// points (Discover, Detect), which materialize the stream into a
// rectangular table first, necessarily fill absent keys with "".
// The source is single-shot.
func FromJSONL(name string, r io.Reader) Source { return source.NewJSONL(name, r) }

// FromJSONLFile names a JSONL file as a re-iterable Source.
func FromJSONLFile(name, path string) Source { return source.JSONLFile(name, path) }

// FromSnapshotFile names a .pfdt binary table snapshot (written by
// Table.WriteSnapshotFile or `pfd discover -save-table`) as a
// re-iterable Source. Loading is a single sequential read that
// rebuilds the dictionary-encoded table directly — no CSV parsing, no
// string re-interning — so it is the fast path for large reference
// tables. name overrides the relation name stored in the snapshot;
// pass "" to keep the stored name. A missing, truncated, corrupted,
// or future-version file surfaces as a *ParseError wrapping the typed
// snapshot error.
func FromSnapshotFile(name, path string) Source { return source.SnapshotFile(name, path) }

// LoadSnapshotFile reads a .pfdt table snapshot directly into a Table
// — the counterpart of Table.WriteSnapshotFile for callers that want
// the table itself rather than a Source. Failures are the typed
// ErrSnapshot* errors.
func LoadSnapshotFile(path string) (*Table, error) { return relation.LoadSnapshotFile(path) }

// FromTable wraps an in-memory table as a re-iterable Source.
// Materializing it is free and returns the table itself.
func FromTable(t *Table) Source { return source.FromTable(t) }

// FromTuples wraps a live tuple channel as a Source, for feeding
// Validate from in-process producers. Iteration ends when the channel
// closes; cancellation of the consuming context ends it early, which
// is what makes Validate over a never-closing feed promptly
// cancellable. cols declares the column order for materialization and
// may be nil when the source is only ever streamed.
func FromTuples(name string, cols []string, ch <-chan Tuple) Source {
	return source.FromChan(name, cols, ch)
}

// ReadTable materializes a Source into a Table, cancellably: the
// explicit form of what Discover
// and Detect do internally. Sources with a native column order (CSV,
// tables) keep it; schemaless sources (JSONL, channels without
// declared columns) get the sorted union of the keys seen.
func ReadTable(ctx context.Context, src Source) (*Table, error) {
	t, err := source.Materialize(ctx, src)
	if err != nil {
		return nil, wrapCanceled(err, "read", 0)
	}
	return t, nil
}
