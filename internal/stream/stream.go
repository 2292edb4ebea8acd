// Package stream is a sharded, batched streaming validation engine
// over PFDs — the production-scale counterpart of the sequential
// internal/pfd.Checker prototype.
//
// The design separates the write path from the read path (the
// Polynesia-style split: specialized layouts per access path):
//
//   - Write path: Submit (one tuple map) and SubmitTable (the rows of a
//     materialized table) resolve each tuple into a value vector and
//     run one match phase in the calling goroutine (pattern matching is
//     the expensive, embarrassingly parallel part — concurrent
//     producers scale it). A per-PFD tableau dispatch index, built once
//     at construction, narrows each tuple to the tableau rows its
//     anchored literals can select; the cell matchers confirm those
//     (dispatch.go). The resulting consensus updates are then routed to
//     shards under a short critical section that only assigns the row
//     id and appends to per-shard batch buffers. Buffers flush to the
//     shard's channel when they reach Options.BatchSize, or when
//     Options.FlushInterval elapses, amortizing channel overhead across
//     tuples.
//
//   - Shard path: group state is partitioned by
//     hash(pfd, tableauRow, lhsKey) across Options.Shards worker
//     goroutines. A group's entire history lives on one shard and
//     arrives in submission order, so each shard replays exactly the
//     sequential Checker's consensus automaton on its slice of the
//     group space — the union of shard outputs is identical to the
//     sequential output for every shard count (pinned by the
//     differential tests in stream_test.go and dispatch_test.go).
//
//   - Read path: Snapshot flushes every pending buffer and sends a
//     barrier op down each shard channel — channel FIFO guarantees the
//     barrier observes everything submitted before it — then collects
//     the per-shard violation logs into one deterministically sorted
//     report.
package stream

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("stream: engine is closed")

// EngineState describes where an Engine is in its lifecycle, so a
// hosting service can answer health checks truthfully instead of
// hanging requests on an engine that is mid-drain.
type EngineState int32

const (
	// EngineRunning: accepting Submits.
	EngineRunning EngineState = iota
	// EngineDraining: Close has begun — pending batches are being
	// flushed and the shard workers drained. Submits fail with
	// ErrClosed; the final report is not yet available.
	EngineDraining
	// EngineClosed: fully drained, the final report is available.
	EngineClosed
)

// String renders the state for logs and metrics ("running",
// "draining", "closed").
func (s EngineState) String() string {
	switch s {
	case EngineRunning:
		return "running"
	case EngineDraining:
		return "draining"
	case EngineClosed:
		return "closed"
	}
	return "unknown"
}

// Options configure the engine. The zero value is usable: it means
// GOMAXPROCS shards, a 64-update batch, and a 2ms flush interval.
type Options struct {
	// Shards is the number of state partitions, each owned by one
	// worker goroutine. <= 0 means runtime.GOMAXPROCS(0). A positive
	// value is clamped to runtime.GOMAXPROCS(0) unless ForceShards is
	// set: shards beyond the usable CPUs only add routing and
	// channel-handoff overhead (no state parallelism is gained when the
	// workers time-slice one core).
	Shards int
	// ForceShards uses Shards exactly as given, above GOMAXPROCS
	// included — for benchmarks that chart oversharding, and for tests
	// that pin a shard topology regardless of the machine.
	ForceShards bool
	// BatchSize is how many routed updates accumulate per shard before
	// the buffer is handed to the worker. <= 0 means 64.
	BatchSize int
	// FlushInterval bounds the latency of partially filled batches
	// under slow traffic. 0 means 2ms; negative disables timed flushes
	// (batches then flush only on BatchSize, Snapshot, or Close).
	FlushInterval time.Duration
	// OnViolation, when non-nil, is invoked from shard workers as each
	// violation is found (concurrently — the callback must be safe for
	// parallel use). It must NOT call back into the engine: Snapshot,
	// Close, Rows, or Submit from inside the callback can deadlock,
	// because the callback runs on the worker the engine would need to
	// make progress.
	OnViolation func(pfd.StreamViolation)
	// DiscardViolations stops the engine from retaining violations for
	// Snapshot/Close reports (their Violations slices stay empty; Rows
	// is still exact). Set it for long-running engines that consume
	// violations through OnViolation: retained logs otherwise grow
	// with every finding — including the retroactive re-fires of a
	// persistently disagreeing group — for the engine's lifetime.
	DiscardViolations bool
}

// DefaultBatchSize is the batch size used when Options.BatchSize <= 0.
const DefaultBatchSize = 64

// DefaultFlushInterval is used when Options.FlushInterval == 0.
const DefaultFlushInterval = 2 * time.Millisecond

// Report is a consistent view of the stream at a snapshot barrier.
type Report struct {
	// Rows is how many tuples had been submitted when the barrier was
	// placed.
	Rows int
	// Violations are all violations found so far, sorted by
	// (row, pfd, tableau row, column, expected). Retroactive findings
	// (NewTuple=false, the sentinel row -1) sort first.
	Violations []pfd.StreamViolation
}

// opKind discriminates routed updates. Stateless kinds carry a
// ready-made verdict; opApply folds into the shard's consensus state.
type opKind uint8

const (
	opApply         opKind = iota // fold span into the group consensus
	opConstMismatch               // constant-row RHS mismatch (exact, stateless)
	opSpanMiss                    // RHS value outside the row's RHS pattern (stateless)
)

// update is one routed unit of work: the consequence of one tuple
// matching one tableau row.
type update struct {
	pfdIdx int
	rowIdx int    // tableau row index
	row    int    // global tuple id, assigned at routing
	key    string // LHS equivalence key (shard + group key)
	span   string // RHS span for opApply; expected constant for opConstMismatch
	kind   opKind
}

// batch is the unit sent down a shard channel: a run of updates,
// optionally followed by a snapshot barrier to acknowledge.
type batch struct {
	ups []update
	// barrier, when non-nil, receives a copy of the shard's violation
	// log after every earlier update has been applied.
	barrier chan<- []pfd.StreamViolation
}

// groupKey identifies one consensus group: (pfd, tableauRow, lhsKey).
type groupKey struct {
	pfdIdx, rowIdx int
	key            string
}

type shard struct {
	in chan batch
	// st holds this shard's slice of the group space; the consensus
	// automaton itself (pfd.GroupState) is shared with the sequential
	// Checker, so both raise identical signals by construction.
	st  map[groupKey]*pfd.GroupState
	log []pfd.StreamViolation // owned by the worker until it exits
}

// Engine is the sharded streaming validator. Submit may be called from
// any number of goroutines; Snapshot and Close are also safe for
// concurrent use.
type Engine struct {
	pfds []*pfd.PFD
	// required lists the columns a tuple must carry; a tuple's value
	// vector holds one value per entry, in this order.
	required []pfd.RequiredColumn
	index    []ruleIndex // per PFD, immutable after NewContext
	opts     Options
	// ctx is the engine's lifetime context (Background for New). Its
	// cancellation makes Submit fail fast, unblocks any producer
	// stalled on shard backpressure, and stops the shard workers from
	// applying further updates — see NewContext.
	ctx context.Context

	shards []*shard
	wg     sync.WaitGroup

	mu      sync.Mutex
	rows    int
	pending [][]update // per-shard fill buffers, guarded by mu
	closed  bool

	stopFlush chan struct{}
	closeOnce sync.Once
	finalRows int
	final     Report
	state     atomic.Int32 // EngineState; written only by Close

	batchPool   sync.Pool // *[]update with cap >= BatchSize
	scratchPool sync.Pool // *matchScratch for Submit's match phase
}

// New creates and starts an engine validating against pfds. The caller
// must Close it to release the worker goroutines.
func New(pfds []*pfd.PFD, opts Options) *Engine {
	return NewContext(context.Background(), pfds, opts)
}

// NewContext is New with a lifetime context threaded through the write
// path and the shard workers. When ctx is canceled:
//
//   - Submit returns ctx's error without folding the tuple in;
//   - a producer blocked on shard backpressure (the channel send in
//     flushLocked) unblocks, its batch dropped — post-cancellation
//     data loss is the contract, the run is being abandoned;
//   - shard workers stop applying updates (and stop invoking
//     OnViolation) but keep draining and answering barriers, so a
//     concurrent Snapshot or Close never deadlocks.
//
// Close must still be called to release the workers and obtain the
// (partial) final report. Cancellation does not interrupt an
// OnViolation callback already in flight.
func NewContext(ctx context.Context, pfds []*pfd.PFD, opts Options) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	} else if !opts.ForceShards && opts.Shards > runtime.GOMAXPROCS(0) {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	e := &Engine{
		ctx:       ctx,
		pfds:      pfds,
		required:  pfd.RequiredColumnRefs(pfds),
		index:     make([]ruleIndex, len(pfds)),
		opts:      opts,
		shards:    make([]*shard, opts.Shards),
		pending:   make([][]update, opts.Shards),
		stopFlush: make(chan struct{}),
	}
	e.batchPool.New = func() any { s := make([]update, 0, opts.BatchSize); return &s }
	e.scratchPool.New = func() any { return e.newScratch() }
	pos := make(map[string]int, len(e.required))
	for i, rc := range e.required {
		pos[rc.Column] = i
	}
	for pi, p := range pfds {
		e.index[pi] = newRuleIndex(p, pos)
	}
	for i := range e.shards {
		s := &shard{in: make(chan batch, 8), st: map[groupKey]*pfd.GroupState{}}
		e.shards[i] = s
		e.pending[i] = *(e.batchPool.Get().(*[]update))
		e.wg.Add(1)
		go e.worker(s)
	}
	if opts.FlushInterval > 0 {
		go e.flushLoop(opts.FlushInterval)
	}
	return e
}

// Submit validates one tuple asynchronously. The expensive pattern
// matching runs in the caller's goroutine (run several producers to
// scale it); the routed updates are applied by the shard workers. The
// returned error is non-nil only for schema problems
// (*pfd.MissingColumnError), a closed engine (ErrClosed), or a
// canceled engine context (the context's error, for engines made with
// NewContext) — dirty data never errors, it surfaces as violations.
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
	return e.routeRow(m.ups)
}

// newScratch returns match-phase scratch sized for e's value vector.
func (e *Engine) newScratch() *matchScratch {
	return &matchScratch{vals: make([]string, len(e.required)), ups: make([]update, 0, 16)}
}

// routeRow is the route phase shared by Submit and SubmitTable: assign
// the next row id and append the tuple's updates to shard buffers under
// the lock, so every group sees its updates in one global submission
// order.
func (e *Engine) routeRow(ups []update) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	row := e.rows
	e.rows++
	for _, u := range ups {
		u.row = row
		si := e.shardOf(u)
		e.pending[si] = append(e.pending[si], u)
		if len(e.pending[si]) >= e.opts.BatchSize {
			e.flushLocked(si)
		}
	}
	e.mu.Unlock()
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
		if err := e.routeRow(m.ups); err != nil {
			return err
		}
	}
	return nil
}

// shardOf hashes the sharding key (pfd, tableauRow, lhsKey) — FNV-1a,
// inlined to stay allocation-free.
func (e *Engine) shardOf(u update) int {
	h := uint32(2166136261)
	h = (h ^ uint32(u.pfdIdx)) * 16777619
	h = (h ^ uint32(u.rowIdx)) * 16777619
	for i := 0; i < len(u.key); i++ {
		h = (h ^ uint32(u.key[i])) * 16777619
	}
	return int(h % uint32(len(e.shards)))
}

// flushLocked hands shard si's pending buffer to its worker. Caller
// holds e.mu. The channel send may block when the shard is backlogged —
// that is the backpressure path: producers stall rather than queue
// unboundedly. A canceled engine context breaks the stall: the batch
// is dropped so the producer (and Close) can make progress.
func (e *Engine) flushLocked(si int) {
	if len(e.pending[si]) == 0 {
		return
	}
	select {
	case e.shards[si].in <- batch{ups: e.pending[si]}:
		e.pending[si] = *(e.batchPool.Get().(*[]update))
	case <-e.ctx.Done():
		// Abandoned run: reuse the buffer in place.
		e.pending[si] = e.pending[si][:0]
	}
}

// flushLoop bounds batch latency under slow traffic.
func (e *Engine) flushLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.mu.Lock()
			if !e.closed {
				for si := range e.shards {
					e.flushLocked(si)
				}
			}
			e.mu.Unlock()
		case <-e.stopFlush:
			return
		}
	}
}

// worker owns one shard: it applies batches in FIFO order and answers
// barriers. It is the only goroutine touching s.st and s.log until the
// channel closes. After the engine context is canceled the worker
// keeps draining (so producers, Snapshot, and Close never hang) but
// stops applying updates — the run is being abandoned.
func (e *Engine) worker(s *shard) {
	defer e.wg.Done()
	for b := range s.in {
		if !e.canceled() {
			for _, u := range b.ups {
				e.apply(s, u)
			}
		}
		if b.ups != nil {
			ups := b.ups[:0]
			e.batchPool.Put(&ups)
		}
		if b.barrier != nil {
			cp := make([]pfd.StreamViolation, len(s.log))
			copy(cp, s.log)
			b.barrier <- cp
		}
	}
}

// apply replays the sequential Checker's consensus automaton for one
// update. Any change here must keep the differential test green.
func (e *Engine) apply(s *shard, u update) {
	p := e.pfds[u.pfdIdx]
	switch u.kind {
	case opConstMismatch:
		e.emit(s, pfd.StreamViolation{
			PFD: p, TableauRow: u.rowIdx,
			Cell:     relation.Cell{Row: u.row, Col: p.RHS},
			Expected: u.span, NewTuple: true,
		})
	case opSpanMiss:
		e.emit(s, pfd.StreamViolation{
			PFD: p, TableauRow: u.rowIdx,
			Cell:     relation.Cell{Row: u.row, Col: p.RHS},
			NewTuple: true,
		})
	case opApply:
		gk := groupKey{pfdIdx: u.pfdIdx, rowIdx: u.rowIdx, key: u.key}
		g := s.st[gk]
		if g == nil {
			g = pfd.NewGroupState()
			s.st[gk] = g
		}
		switch outcome, maj := g.Fold(u.span); outcome {
		case pfd.FoldMinority:
			e.emit(s, pfd.StreamViolation{
				PFD: p, TableauRow: u.rowIdx,
				Cell:     relation.Cell{Row: u.row, Col: p.RHS},
				Expected: maj, NewTuple: true,
			})
		case pfd.FoldRetroactive:
			e.emit(s, pfd.StreamViolation{
				PFD: p, TableauRow: u.rowIdx,
				Cell:     relation.Cell{Row: -1, Col: p.RHS},
				Expected: maj, NewTuple: false,
			})
		}
	}
}

func (e *Engine) emit(s *shard, v pfd.StreamViolation) {
	if !e.opts.DiscardViolations {
		s.log = append(s.log, v)
	}
	if e.opts.OnViolation != nil {
		e.opts.OnViolation(v)
	}
}

// Snapshot places a barrier: it flushes every pending buffer, waits for
// each shard to apply everything submitted before the barrier, and
// returns the consistent violation report. Tuples submitted
// concurrently with Snapshot land on one side of the barrier or the
// other, atomically. On a closed engine it returns the final report.
func (e *Engine) Snapshot() Report {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return e.Close()
	}
	rows := e.rows
	acks := make([]chan []pfd.StreamViolation, len(e.shards))
	for si, s := range e.shards {
		e.flushLocked(si)
		ack := make(chan []pfd.StreamViolation, 1)
		acks[si] = ack
		s.in <- batch{barrier: ack}
	}
	e.mu.Unlock()
	var all []pfd.StreamViolation
	for _, ack := range acks {
		all = append(all, <-ack...)
	}
	e.sortViolations(all)
	return Report{Rows: rows, Violations: all}
}

// Close drains every in-flight batch, stops the workers, and returns
// the final report. Further Submits return ErrClosed; further Close or
// Snapshot calls return the same final report.
func (e *Engine) Close() Report {
	e.closeOnce.Do(func() {
		e.state.Store(int32(EngineDraining))
		e.mu.Lock()
		e.closed = true
		close(e.stopFlush)
		for si, s := range e.shards {
			e.flushLocked(si)
			close(s.in)
		}
		e.finalRows = e.rows
		e.mu.Unlock()
		e.wg.Wait()
		var all []pfd.StreamViolation
		for _, s := range e.shards {
			all = append(all, s.log...)
		}
		e.sortViolations(all)
		e.final = Report{Rows: e.finalRows, Violations: all}
		e.state.Store(int32(EngineClosed))
	})
	return e.final
}

// State reports the engine's lifecycle state. It is safe to call
// concurrently with everything, including Close: a service can poll it
// from a health endpoint while a drain is in progress.
func (e *Engine) State() EngineState { return EngineState(e.state.Load()) }

// Shards returns the effective shard count (after the GOMAXPROCS
// clamp), for reporting.
func (e *Engine) Shards() int { return len(e.shards) }

// Backlog reports approximately how much routed work is queued but not
// yet applied: the number of batches sitting in shard channels, and
// the updates still accumulating in the per-shard fill buffers. It is
// a monitoring gauge — the engine keeps moving while it is read, so
// the numbers are a snapshot, not an invariant.
func (e *Engine) Backlog() (batches, buffered int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for si, s := range e.shards {
		batches += len(s.in)
		buffered += len(e.pending[si])
	}
	return batches, buffered
}

// canceled reports whether the engine context has been canceled.
func (e *Engine) canceled() bool {
	select {
	case <-e.ctx.Done():
		return true
	default:
		return false
	}
}

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
// are comparable across shard counts and runs.
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
