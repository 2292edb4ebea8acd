package pfd

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"pfd/internal/discovery"
	"pfd/internal/repair"
	"pfd/internal/source"
	"pfd/internal/stream"
)

// A CanceledError reports a run interrupted by context cancellation or
// deadline expiry. It unwraps to the context error, so
// errors.Is(err, context.Canceled) (or context.DeadlineExceeded) holds.
type CanceledError struct {
	// Op is the interrupted operation: "read", "discover", "detect",
	// "validate", or "repair".
	Op string
	// Rows is how many rows/tuples had been processed when the
	// cancellation was observed (0 when unknown).
	Rows int
	// Err is the underlying context error.
	Err error
}

func (e *CanceledError) Error() string {
	if e.Rows > 0 {
		return fmt.Sprintf("pfd: %s canceled after %d rows: %v", e.Op, e.Rows, e.Err)
	}
	return fmt.Sprintf("pfd: %s canceled: %v", e.Op, e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }

// wrapCanceled types context errors as *CanceledError and passes every
// other error (already typed: *ParseError, *MissingColumnError)
// through unchanged.
func wrapCanceled(err error, op string, rows int) error {
	var ce *CanceledError
	if errors.As(err, &ce) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &CanceledError{Op: op, Rows: rows, Err: err}
	}
	return err
}

// seqOf adapts a slice to an iter.Seq.
func seqOf[T any](s []T) iter.Seq[T] {
	return func(yield func(T) bool) {
		for _, v := range s {
			if !yield(v) {
				return
			}
		}
	}
}

// Discovery is the result of Discover: the dependencies, the
// materialized input table, and the effective parameters.
type Discovery struct {
	result *discovery.Result
	table  *Table
}

// Table returns the materialized input, so a discover-then-detect
// pipeline reads the source once:
//
//	disc, _ := pfd.Discover(ctx, src)
//	det, _ := pfd.Detect(ctx, pfd.FromTable(disc.Table()), disc.PFDs())
func (d *Discovery) Table() *Table { return d.table }

// Dependencies returns the discovered dependencies, sorted by their
// embedded FD.
func (d *Discovery) Dependencies() []*Dependency { return d.result.Dependencies }

// All streams the discovered dependencies.
func (d *Discovery) All() iter.Seq[*Dependency] { return seqOf(d.result.Dependencies) }

// PFDs returns the discovered PFDs, in dependency order.
func (d *Discovery) PFDs() []*PFD {
	out := make([]*PFD, len(d.result.Dependencies))
	for i, dep := range d.result.Dependencies {
		out[i] = dep.PFD
	}
	return out
}

// Params returns the effective (normalized) discovery parameters.
func (d *Discovery) Params() Params { return d.result.Params }

// Ruleset packages the discovered PFDs as a durable artifact with
// provenance (source table, row count, effective parameters), ready
// to persist with WriteTo/WriteFile and reload with LoadRuleset — so
// discovery runs once and detection, validation, repair, and
// inference reuse the result.
func (d *Discovery) Ruleset() *Ruleset {
	params := d.result.Params
	return &Ruleset{
		Name: d.table.Name,
		Provenance: &Provenance{
			Source: d.table.Name,
			Rows:   d.table.NumRows(),
			Tool:   "discover",
			Params: &params,
		},
		PFDs: d.PFDs(),
	}
}

// Profiles returns the column profiles computed during discovery.
func (d *Discovery) Profiles() []ColumnProfile { return d.result.Profiles }

// Discover mines PFDs from a source with the paper's Figure 4
// algorithm. The defaults are the paper's §5.1 setting
// (DefaultParams); adjust with options. The source is materialized
// first (free for FromTable); cancellation is observed during
// materialization, between lattice levels, and by every worker of the
// candidate-evaluation pool, and surfaces as a *CanceledError.
func Discover(ctx context.Context, src Source, opts ...DiscoverOption) (*Discovery, error) {
	cfg := newDiscoverConfig(opts)
	t, err := source.Materialize(ctx, src)
	if err != nil {
		return nil, wrapCanceled(err, "discover", 0)
	}
	res, err := discovery.DiscoverContext(ctx, t, cfg.params, cfg.progress)
	if err != nil {
		return nil, wrapCanceled(err, "discover", t.NumRows())
	}
	return &Discovery{result: res, table: t}, nil
}

// Detection is the result of Detect: the deduplicated findings and the
// materialized input table they address.
type Detection struct {
	findings []Finding
	table    *Table
}

// Findings returns the findings, sorted by cell.
func (d *Detection) Findings() []Finding { return d.findings }

// All streams the findings.
func (d *Detection) All() iter.Seq[Finding] { return seqOf(d.findings) }

// Table returns the materialized input the findings refer to.
func (d *Detection) Table() *Table { return d.table }

// Repair applies the proposed fixes to a copy of the table, returning
// the repaired copy and the number of cells changed.
func (d *Detection) Repair() (*Table, int) { return repair.Apply(d.table, d.findings) }

// Detect applies PFDs to a source and returns one finding per distinct
// erroneous cell, each with a proposed, explainable repair when the
// violated constraint pins one. Cancellation is observed during
// materialization and between the planner's LHS groups (between PFDs
// under WithoutSharedPlan), and surfaces as a *CanceledError. A PFD
// naming a column the input lacks fails the call with a
// *MissingColumnError before anything is evaluated.
func Detect(ctx context.Context, src Source, pfds []*PFD, opts ...DetectOption) (*Detection, error) {
	cfg := newDetectConfig(opts)
	t, err := source.Materialize(ctx, src)
	if err != nil {
		return nil, wrapCanceled(err, "detect", 0)
	}
	findings, err := repair.DetectContextOptions(ctx, t, pfds, repair.Options{Progress: cfg.progress, NoPlanner: cfg.noPlan})
	if err != nil {
		return nil, wrapCanceled(err, "detect", t.NumRows())
	}
	return &Detection{findings: findings, table: t}, nil
}

// RepairResult reports a fixpoint repair run; see RepairToFixpoint.
type RepairResult struct {
	holistic HolisticResult
	input    *Table
}

// Table returns the repaired copy of the input.
func (r *RepairResult) Table() *Table { return r.holistic.Table }

// Input returns the materialized (unrepaired) input table.
func (r *RepairResult) Input() *Table { return r.input }

// Rounds returns how many detect-repair rounds ran.
func (r *RepairResult) Rounds() int { return r.holistic.Rounds }

// Repaired returns how many cells were rewritten.
func (r *RepairResult) Repaired() int { return r.holistic.Repaired }

// Remaining returns the findings still open after the last round
// (ties, or cells with no proposable repair).
func (r *RepairResult) Remaining() []Finding { return r.holistic.Remaining }

// AllRemaining streams the still-open findings.
func (r *RepairResult) AllRemaining() iter.Seq[Finding] { return seqOf(r.holistic.Remaining) }

// RepairToFixpoint materializes a source and runs detect-repair rounds
// until no proposable repair remains (chained errors such as a wrong
// zip masking a wrong city need more than one pass). Cancellation is
// observed between rounds and inside each round's detection, and
// surfaces as a *CanceledError. A PFD naming a column the input lacks
// fails the call with a *MissingColumnError, as in Detect.
func RepairToFixpoint(ctx context.Context, src Source, pfds []*PFD, opts ...RepairOption) (*RepairResult, error) {
	cfg := newRepairConfig(opts)
	t, err := source.Materialize(ctx, src)
	if err != nil {
		return nil, wrapCanceled(err, "repair", 0)
	}
	res, err := repair.HolisticContext(ctx, t, pfds, repair.HolisticOptions{MaxRounds: cfg.maxRounds})
	if err != nil {
		return nil, wrapCanceled(err, "repair", t.NumRows())
	}
	return &RepairResult{holistic: res, input: t}, nil
}

// Validation is the result of Validate: a consistent final report of
// the whole run, plus the warm/live split when WithWarmup was used.
type Validation struct {
	report   StreamReport
	warmRows int
}

// Rows returns how many tuples were validated, warmup included.
func (v *Validation) Rows() int { return v.report.Rows }

// WarmRows returns how many tuples the WithWarmup reference
// contributed (0 without warmup). Live tuples occupy rows
// [WarmRows, Rows).
func (v *Validation) WarmRows() int { return v.warmRows }

// LiveRows returns how many live (post-warmup) tuples were validated.
func (v *Validation) LiveRows() int { return v.report.Rows - v.warmRows }

// Violations returns every retained violation, deterministically
// sorted (empty under WithoutViolationLog). Warm-replay violations are
// included; use Live to filter them out.
func (v *Validation) Violations() []StreamViolation { return v.report.Violations }

// All streams every retained violation.
func (v *Validation) All() iter.Seq[StreamViolation] { return seqOf(v.report.Violations) }

// Live streams the retained violations attributed to live tuples: the
// NewTuple findings on rows at or past the warmup boundary.
// Retroactive signals (NewTuple=false, the sentinel row -1) are
// excluded — they re-fire per majority-side tuple and may stem from
// delta-tolerated dirt in the reference batch.
func (v *Validation) Live() iter.Seq[StreamViolation] {
	return func(yield func(StreamViolation) bool) {
		for _, viol := range v.report.Violations {
			if viol.NewTuple && viol.Cell.Row >= v.warmRows {
				if !yield(viol) {
					return
				}
			}
		}
	}
}

// Report returns the raw engine report.
func (v *Validation) Report() StreamReport { return v.report }

// validateProgressEvery is how many live tuples pass between
// WithValidateProgress callbacks.
const validateProgressEvery = 4096

// Validate checks a source against PFDs with streaming (ingest-time)
// semantics and returns a consistent final report. It submits the
// source's tuples from the calling goroutine, so row ids follow source
// order and the report is deterministic.
// WithWarmup folds a trusted reference in first so group consensus
// exists before the first live tuple.
//
// Errors are typed: *ParseError for malformed input,
// *MissingColumnError when a tuple lacks a column some PFD references,
// and *CanceledError when ctx is canceled.
func Validate(ctx context.Context, src Source, pfds []*PFD, opts ...StreamOption) (*Validation, error) {
	cfg := newStreamConfig(opts)

	// Suppress handler delivery during warm replay: reference data is
	// trusted, its violations are delta-tolerated dirt, not live
	// findings. The handler runs inside Submit, and live is set before
	// the first live Submit, so a plain flag suffices.
	live := cfg.warm == nil
	engOpts := cfg.engine
	if h := engOpts.OnViolation; h != nil {
		engOpts.OnViolation = func(v StreamViolation) {
			if live {
				h(v)
			}
		}
	}

	eng := stream.NewContext(ctx, pfds, engOpts)
	warmRows := 0
	if cfg.warm != nil {
		n, err := warmEngine(ctx, eng, cfg.warm)
		if err != nil {
			eng.Close()
			return nil, wrapCanceled(err, "validate", n)
		}
		warmRows = n
		live = true
	}
	n, err := submitEngine(ctx, eng, src, cfg.progress)
	rep := eng.Close()
	if err != nil {
		return nil, wrapCanceled(err, "validate", warmRows+n)
	}
	return &Validation{report: rep, warmRows: warmRows}, nil
}

// warmEngine folds the WithWarmup reference into the engine. Sources
// that can materialize a table (CSV files, in-memory tables) are
// replayed with SubmitTable, which reads each row's values straight
// from the table's columns instead of building a tuple map per row; the
// match phase is the same as Submit's. The reference is held in RAM for
// the replay (references are curated clean batches, and the
// rule-producing paths materialize them anyway); a caller with a
// reference too large to materialize can wrap it in a plain Source (no
// ReadTable) to keep the bounded per-tuple loop, which remains the
// fallback for every other source.
func warmEngine(ctx context.Context, eng *stream.Engine, ref Source) (int, error) {
	if tr, ok := ref.(source.TableReader); ok {
		tbl, err := tr.ReadTable(ctx)
		if err != nil {
			return 0, err
		}
		if err := eng.SubmitTable(tbl); err != nil {
			return eng.Rows(), err
		}
		return tbl.NumRows(), nil
	}
	return submitEngine(ctx, eng, ref, nil)
}

// submitEngine drives one source into the engine from the calling
// goroutine, returning how many tuples were submitted. progress, when
// non-nil, is invoked every validateProgressEvery tuples.
func submitEngine(ctx context.Context, eng *stream.Engine, src Source, progress func(int)) (int, error) {
	n := 0
	for tuple, err := range src.Tuples(ctx) {
		if err != nil {
			return n, err
		}
		if err := eng.Submit(tuple); err != nil {
			return n, err
		}
		n++
		if progress != nil && n%validateProgressEvery == 0 {
			progress(n)
		}
	}
	return n, nil
}
