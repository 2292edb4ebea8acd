// Package stream is the streaming validation engine over PFDs — the
// production counterpart of the sequential internal/pfd.Checker
// prototype.
//
// Each tuple is validated in the goroutine that submits it, in two
// phases:
//
//   - Match: Submit (one tuple map) and SubmitTable (the rows of a
//     materialized table) resolve each tuple into a value vector and
//     run the match phase without a lock (pattern matching is the
//     expensive, embarrassingly parallel part — concurrent producers
//     scale it). A per-PFD tableau dispatch index, built once at
//     construction, narrows each tuple to the tableau rows its anchored
//     literals can select; the cell matchers confirm those
//     (dispatch.go).
//
//   - Fold: the tuple's consensus updates are then applied under the
//     engine lock, once per tuple: the lock assigns the row id, folds
//     the updates into the one group-state map, and emits the
//     violations they raise before Submit returns. Every group
//     therefore sees its tuples in one global submission order, and the
//     engine replays exactly the sequential Checker's consensus
//     automaton (pinned by the differential tests in stream_test.go and
//     dispatch_test.go).
//
// Snapshot copies the violation log under the same lock, so a report
// holds everything acknowledged before it and nothing is queued
// anywhere.
package stream

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"

	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("stream: engine is closed")

// Options configure the engine. The zero value is usable.
type Options struct {
	// OnViolation, when non-nil, is invoked as each violation is found.
	// It runs in the goroutine that submitted the tuple, while the
	// engine lock is held, so calls never overlap, even with several
	// producers, and arrive in row order. It must NOT call back into the
	// engine: Snapshot, Close, Rows, or Submit from inside the callback
	// deadlock on that lock. A slow callback stalls every producer.
	OnViolation func(pfd.StreamViolation)
	// DiscardViolations stops the engine from retaining violations for
	// Snapshot/Close reports (their Violations slices stay empty; Rows
	// is still exact). Set it for long-running engines that consume
	// violations through OnViolation: retained logs otherwise grow
	// with every finding — including the retroactive re-fires of a
	// persistently disagreeing group — for the engine's lifetime.
	DiscardViolations bool
}

// Report is a consistent view of the stream at one point of its
// submission order.
type Report struct {
	// Rows is how many tuples had been submitted when the report was
	// taken.
	Rows int
	// Violations are all violations found so far, sorted by
	// (row, pfd, tableau row, column, expected). Retroactive findings
	// (NewTuple=false, the sentinel row -1) sort first.
	Violations []pfd.StreamViolation
}

// opKind discriminates a tuple's updates. Stateless kinds carry a
// ready-made verdict; opApply folds into the group consensus state.
type opKind uint8

const (
	opApply         opKind = iota // fold span into the group consensus
	opConstMismatch               // constant-row RHS mismatch (exact, stateless)
	opSpanMiss                    // RHS value outside the row's RHS pattern (stateless)
)

// update is one unit of fold work: the consequence of one tuple
// matching one tableau row.
type update struct {
	pfdIdx int
	rowIdx int    // tableau row index
	key    string // LHS equivalence key (the group key)
	span   string // RHS span for opApply; expected constant for opConstMismatch
	kind   opKind
}

// groupKey identifies one consensus group: (pfd, tableauRow, lhsKey).
type groupKey struct {
	pfdIdx, rowIdx int
	key            string
}

// Engine is the streaming validator. Submit may be called from any
// number of goroutines; Snapshot and Close are also safe for
// concurrent use.
type Engine struct {
	pfds []*pfd.PFD
	// required lists the columns a tuple must carry; a tuple's value
	// vector holds one value per entry, in this order.
	required []pfd.RequiredColumn
	index    []ruleIndex // per PFD, immutable after NewContext
	opts     Options
	// ctx is the engine's lifetime context (Background for New). Its
	// cancellation makes Submit and SubmitTable fail fast — see
	// NewContext.
	ctx context.Context

	mu   sync.Mutex
	rows int
	// st is the group space; the consensus automaton itself
	// (pfd.GroupState) is shared with the sequential Checker, so both
	// raise identical signals by construction.
	st     map[groupKey]*pfd.GroupState
	log    []pfd.StreamViolation
	closed bool // under mu

	scratchPool sync.Pool // *matchScratch for Submit's match phase
}

// New creates an engine validating against pfds.
func New(pfds []*pfd.PFD, opts Options) *Engine {
	return NewContext(context.Background(), pfds, opts)
}

// NewContext is New with a lifetime context threaded through the write
// path: once ctx is canceled, Submit returns ctx's error without
// folding the tuple in, and SubmitTable stops before its next row.
// Close still returns the (partial) final report.
func NewContext(ctx context.Context, pfds []*pfd.PFD, opts Options) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &Engine{
		ctx:      ctx,
		pfds:     pfds,
		required: pfd.RequiredColumnRefs(pfds),
		index:    make([]ruleIndex, len(pfds)),
		opts:     opts,
		st:       map[groupKey]*pfd.GroupState{},
	}
	e.scratchPool.New = func() any { return e.newScratch() }
	pos := make(map[string]int, len(e.required))
	for i, rc := range e.required {
		pos[rc.Column] = i
	}
	for pi, p := range pfds {
		e.index[pi] = newRuleIndex(p, pos)
	}
	return e
}

// Submit validates one tuple. The pattern matching runs without the
// engine lock (run several producers to scale it); the fold takes the
// lock once, and every violation the tuple raises has been logged and
// handed to OnViolation when Submit returns. The returned error is
// non-nil only for schema problems (*pfd.MissingColumnError), a closed
// engine (ErrClosed), or a canceled engine context (the context's
// error, for engines made with NewContext) — dirty data never errors,
// it surfaces as violations.
func (e *Engine) Submit(tuple map[string]string) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	m := e.scratchPool.Get().(*matchScratch)
	defer func() {
		clear(m.vals) // drop references into the caller's tuple
		e.scratchPool.Put(m)
	}()
	for i, rc := range e.required {
		v, ok := tuple[rc.Column]
		if !ok {
			return &pfd.MissingColumnError{Column: rc.Column, PFD: rc.PFD}
		}
		m.vals[i] = v
	}
	e.matchRow(m)
	return e.foldRow(m.ups)
}

// newScratch returns match-phase scratch sized for e's value vector.
func (e *Engine) newScratch() *matchScratch {
	return &matchScratch{vals: make([]string, len(e.required)), ups: make([]update, 0, 16)}
}

// foldRow is the fold phase shared by Submit and SubmitTable: under the
// lock, assign the next row id and apply the tuple's updates, so every
// group sees its updates in one global submission order.
func (e *Engine) foldRow(ups []update) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	row := e.rows
	e.rows++
	for _, u := range ups {
		e.apply(u, row)
	}
	return nil
}

// SubmitTable folds every row of a materialized table into the engine,
// in row order, with the same semantics as per-tuple Submit calls. It
// reads each row's values straight from the table's columns (no tuple
// maps) and runs the same match phase as Submit; it is the warm-replay
// path for table-backed references.
func (e *Engine) SubmitTable(t *relation.Table) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	cols := make([]int, len(e.required))
	for i, rc := range e.required {
		if cols[i] = t.Col(rc.Column); cols[i] < 0 {
			return &pfd.MissingColumnError{Column: rc.Column, PFD: rc.PFD}
		}
	}
	m := e.newScratch()
	for id := 0; id < t.NumRows(); id++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		for i, c := range cols {
			m.vals[i] = t.At(id, c)
		}
		e.matchRow(m)
		if err := e.foldRow(m.ups); err != nil {
			return err
		}
	}
	return nil
}

// apply replays the sequential Checker's consensus automaton for one
// update of tuple row. Caller holds e.mu. Any change here must keep the
// differential test green.
func (e *Engine) apply(u update, row int) {
	p := e.pfds[u.pfdIdx]
	switch u.kind {
	case opConstMismatch:
		e.emit(pfd.StreamViolation{
			PFD: p, TableauRow: u.rowIdx,
			Cell:     relation.Cell{Row: row, Col: p.RHS},
			Expected: u.span, NewTuple: true,
		})
	case opSpanMiss:
		e.emit(pfd.StreamViolation{
			PFD: p, TableauRow: u.rowIdx,
			Cell:     relation.Cell{Row: row, Col: p.RHS},
			NewTuple: true,
		})
	case opApply:
		gk := groupKey{pfdIdx: u.pfdIdx, rowIdx: u.rowIdx, key: u.key}
		g := e.st[gk]
		if g == nil {
			g = pfd.NewGroupState()
			e.st[gk] = g
		}
		switch outcome, maj := g.Fold(u.span); outcome {
		case pfd.FoldMinority:
			e.emit(pfd.StreamViolation{
				PFD: p, TableauRow: u.rowIdx,
				Cell:     relation.Cell{Row: row, Col: p.RHS},
				Expected: maj, NewTuple: true,
			})
		case pfd.FoldRetroactive:
			e.emit(pfd.StreamViolation{
				PFD: p, TableauRow: u.rowIdx,
				Cell:     relation.Cell{Row: -1, Col: p.RHS},
				Expected: maj, NewTuple: false,
			})
		}
	}
}

// emit logs and delivers one violation. Caller holds e.mu: the handler
// runs under the lock on purpose, so its calls never overlap and see
// the violations in fold order.
func (e *Engine) emit(v pfd.StreamViolation) {
	if !e.opts.DiscardViolations {
		e.log = append(e.log, v)
	}
	if e.opts.OnViolation != nil {
		e.opts.OnViolation(v)
	}
}

// Snapshot returns the violation report of every tuple submitted so
// far. A tuple submitted concurrently with Snapshot lands on one side
// of it or the other, atomically. On a closed engine it returns the
// final report.
func (e *Engine) Snapshot() Report {
	e.mu.Lock()
	rep := Report{Rows: e.rows, Violations: slices.Clone(e.log)}
	e.mu.Unlock()
	e.sortViolations(rep.Violations)
	return rep
}

// Close stops the engine and returns the final report. Further Submits
// return ErrClosed; further Close or Snapshot calls return the same
// final report.
func (e *Engine) Close() Report {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	return e.Snapshot()
}

// Backlog reports the work queued but not yet applied. Nothing is
// queued: every tuple is folded before Submit returns, so it always
// returns (0, 0).
func (e *Engine) Backlog() (batches, buffered int) { return 0, 0 }

// Err returns the engine context's error: nil while the context is
// live (always, for engines made with New), the context error after
// cancellation.
func (e *Engine) Err() error { return e.ctx.Err() }

// Rows returns how many tuples have been submitted so far.
func (e *Engine) Rows() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rows
}

// sortViolations orders a violation slice deterministically so reports
// are comparable across producer counts and runs.
func (e *Engine) sortViolations(vs []pfd.StreamViolation) {
	idx := make(map[*pfd.PFD]int, len(e.pfds))
	for i, p := range e.pfds {
		idx[p] = i
	}
	SortViolations(vs, idx)
}

// SortViolations orders violations by (row, pfd index, tableau row,
// column, expected, NewTuple). Exported for the differential tests,
// which sort sequential-Checker output with the same comparator.
func SortViolations(vs []pfd.StreamViolation, pfdIdx map[*pfd.PFD]int) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Cell.Row != b.Cell.Row {
			return a.Cell.Row < b.Cell.Row
		}
		if pi, pj := pfdIdx[a.PFD], pfdIdx[b.PFD]; pi != pj {
			return pi < pj
		}
		if a.TableauRow != b.TableauRow {
			return a.TableauRow < b.TableauRow
		}
		if a.Cell.Col != b.Cell.Col {
			return a.Cell.Col < b.Cell.Col
		}
		if a.Expected != b.Expected {
			return a.Expected < b.Expected
		}
		return !a.NewTuple && b.NewTuple
	})
}
