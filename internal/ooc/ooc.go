// Package ooc implements out-of-core PFD discovery: the Figure 4
// algorithm at row counts that do not fit the in-memory table.
//
// The driver partitions the input into bounded columnar chunks
// (internal/relation tables, spilled to .pfdt snapshots under a memory
// limit), merges per-chunk dictionaries into an append-only global
// dictionary so chunk code vectors remap cheaply into one shared code
// space, and then evaluates lattice candidates exactly — each batch of
// candidates is re-assembled as a full-row projection of just its
// columns, so the per-candidate machinery (inverted pattern index,
// draft decision function, generalization) runs unchanged and the
// output is byte-identical to in-memory discovery.
//
// Three properties carry the design:
//
//  1. Profiling, index construction, and candidate evaluation are
//     strictly per-column: a candidate evaluated against a projection
//     holding all N rows of just its columns (with the full-table
//     column profiles) yields the same dependency, byte for byte.
//  2. A chunk dictionary lists values in first-appearance order, so
//     interning chunk dictionaries chunk by chunk, code by code,
//     reproduces the global first-appearance order exactly — the
//     merged dictionary equals the one a monolithic scan would build.
//  3. Dictionary-level key supports upper-bound a candidate's
//     coverage, so candidates whose bound falls below MinCoverage are
//     pruned without touching row data; in-memory discovery would
//     have returned nil for them anyway, keeping prune and evaluate
//     byte-identical.
package ooc

import (
	"pfd/internal/discovery"
	"pfd/internal/relation"
)

// VerifyMode selects how sample mining feeds the exact pass.
type VerifyMode uint8

const (
	// VerifyFull evaluates every lattice candidate that survives the
	// dictionary-level coverage bound; the sample is not mined.
	// Results are byte-identical to in-memory discovery.
	VerifyFull VerifyMode = iota
	// VerifySample screens the lattice down to candidates that sample
	// mining surfaced, then evaluates those exactly. Candidates the
	// sample missed are skipped, so results are approximate; every
	// reported dependency is still exact.
	VerifySample
)

func (m VerifyMode) String() string {
	if m == VerifySample {
		return "sample"
	}
	return "full"
}

// Options configures one out-of-core discovery run. The zero value
// asks for defaults: 64Ki-row chunks, a 64Ki-row sample, no memory
// limit (chunks stay resident), full verification, and a confirm pass.
type Options struct {
	// Params are the discovery parameters, normalized on entry.
	Params discovery.Params
	// ChunkRows bounds the rows per chunk when the driver does the
	// chunking (row/tuple sources). Chunked sources (multi-.pfdt)
	// define their own chunk boundaries. 0 means DefaultChunkRows.
	ChunkRows int
	// SampleRows is the target size of the deterministic systematic
	// sample that VerifySample mines for its candidate screen; no other
	// mode collects one. 0 means DefaultSampleRows; negative disables
	// sampling.
	SampleRows int
	// MemLimit caps the bytes of chunk data kept resident; beyond it,
	// ingested chunks spill to .pfdt snapshots in SpillDir. It also
	// budgets candidate-batch projections (MemLimit/2 per batch).
	// 0 means unlimited: everything stays in memory.
	MemLimit int64
	// SpillDir is where spilled chunk snapshots go. "" means a fresh
	// directory under os.TempDir, removed when discovery returns.
	SpillDir string
	// Verify selects full or sample-screened verification.
	Verify VerifyMode
	// SkipConfirm skips the final full streaming pass that annotates
	// each discovered rule with exact support and streaming-violation
	// counts (Result.Health).
	SkipConfirm bool
}

// DefaultChunkRows bounds driver-side chunking when Options.ChunkRows
// is zero.
const DefaultChunkRows = 1 << 16

// DefaultSampleRows is the default sample target.
const DefaultSampleRows = 1 << 16

// Stats reports what one run did — how the input was chunked, what
// the sample looked like, and how far the dictionary-level bound cut
// the lattice before any row data was touched.
type Stats struct {
	Rows          int   // total input rows
	Chunks        int   // chunks ingested
	SpilledChunks int   // chunks written to .pfdt spill files
	SpilledBytes  int64 // bytes in spill files
	PeakResident  int64 // peak estimated bytes of resident chunk data

	SampleRows   int   // rows in the sample (0 unless VerifySample)
	SampleStride int64 // final systematic-sample stride

	Candidates    int // lattice candidates considered
	ScreenedOut   int // dropped by the sample screen (VerifySample)
	PrunedByBound int // dropped by the dictionary-level coverage bound
	Evaluated     int // exactly evaluated
	Batches       int // projection batches built

	ConfirmRows int // rows replayed by the confirm pass
}

// Result is the out-of-core discovery output. Dependencies, Profiles,
// and Params match in-memory discovery byte for byte under VerifyFull.
type Result struct {
	Name         string
	Rows         int
	Dependencies []*discovery.Dependency
	Profiles     []relation.ColumnProfile
	Params       discovery.Params
	// Health carries the confirm pass's exact per-rule counters,
	// ranked by confidence; empty when SkipConfirm is set or no
	// dependencies were found.
	Health []RuleHealth
	Stats  Stats
}
