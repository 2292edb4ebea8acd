package pfd

import (
	"math/bits"
	"sort"

	"pfd/internal/kernel"
	"pfd/internal/pattern"
	"pfd/internal/relation"
)

// A Violation reports one breach of a PFD on a table, in terms of the
// cells involved — the paper's Example 2 reports the four cells
// (r3[name], r3[gender], r4[name], r4[gender]) for a pair violation, and
// the offending tuple's cells for a single-tuple violation.
type Violation struct {
	// TableauRow indexes the tableau tuple that fired.
	TableauRow int
	// ErrorCell is the most likely erroneous cell (the minority RHS).
	ErrorCell relation.Cell
	// Cells are all cells participating in the violation.
	Cells []relation.Cell
	// Expected is the consensus RHS span the erroneous tuple deviated
	// from ("" when no strict majority exists).
	Expected string
	// HasConsensus reports whether a strict majority existed in the
	// violating group; repairs are only proposed when it does.
	HasConsensus bool
	// WitnessRow is a tuple agreeing with the consensus (-1 for
	// single-tuple violations of constant rows).
	WitnessRow int
}

// SpanEval is one tableau cell evaluated over one column's dictionary:
// per dictionary code, an interned constrained-span id (-1 when the
// cell rejects the value), and per span id the span itself. Spans are
// interned so that grouping and consensus scanning below run on small
// integers instead of hashing span strings per row; code's span is
// Sids[Sid[code]]. Computing the whole structure once per (cell,
// column) turns every per-row pattern invocation into a code lookup —
// the dictionary-encoded layout's central win, since real columns have
// far fewer distinct values than rows.
//
// It is exported as the evaluation currency of the multi-rule planner
// (internal/plan): the planner dedupes identical tableau cells across
// rules into one SpanEval each per execute and feeds the results back
// through ScanGroup, so one evaluation serves many PFDs. The structure
// depends only on (cell, dictionary contents); Sids assigns ids in
// first-code order, which makes two evaluations of the same cell over
// the same dictionary identical — the property the sharing relies on.
type SpanEval struct {
	Sid  []int32  // code -> interned span id, -1 when the cell rejects it
	Sids []string // span id -> span, in first-code order
}

// EvalCellSpans evaluates cell c over a column dictionary. Every entry
// is evaluated — including retired ones (no longer held by any row) —
// so the result depends only on the dictionary contents.
func EvalCellSpans(c Cell, dict []string) *SpanEval {
	ev := &SpanEval{Sid: make([]int32, len(dict))}
	intern := make(map[string]int32, 16)
	for code, v := range dict {
		span, ok := c.Span(v)
		if !ok {
			ev.Sid[code] = -1
			continue
		}
		sid, seen := intern[span]
		if !seen {
			sid = int32(len(ev.Sids))
			intern[span] = sid
			ev.Sids = append(ev.Sids, span)
		}
		ev.Sid[code] = sid
	}
	return ev
}

// EvalColumnSpans evaluates every cell of cells over one column
// dictionary in a single pass and returns the evaluations aligned with
// cells, each equal to EvalCellSpans(cells[i], dict). Cells that anchor
// a literal (constants, anchored prefixes) are filed in a
// pattern.AnchorIndex, so a value is confirmed only against the cells
// whose literal it carries and every other anchored cell keeps Sid -1;
// the rest (wildcards, class runs, general shapes) are evaluated on
// every value. Codes are visited in ascending order, so each cell's
// Sids come out in first-code order, as EvalCellSpans assigns them.
func EvalColumnSpans(cells []Cell, dict []string) []*SpanEval {
	evs := make([]*SpanEval, len(cells))
	var ix pattern.AnchorIndex
	var scan []int32
	for i, c := range cells {
		sid := make([]int32, len(dict))
		evs[i] = &SpanEval{Sid: sid}
		if c.IsWildcard() || !ix.Add(c.Pattern.Compiled(), int32(i)) {
			scan = append(scan, int32(i))
			continue
		}
		for code := range sid {
			sid[code] = -1
		}
	}
	interns := make([]map[string]int32, len(cells))
	var cand []int32
	for code, v := range dict {
		cand, _ = ix.Lookup(v, append(cand[:0], scan...))
		for _, ci := range cand {
			ev := evs[ci]
			span, ok := cells[ci].Span(v)
			if !ok {
				ev.Sid[code] = -1
				continue
			}
			// Anchored cells have one span, so the intern map is built
			// only once a second distinct span shows up.
			n := len(ev.Sids)
			if n > 0 && ev.Sids[n-1] == span {
				ev.Sid[code] = int32(n - 1)
				continue
			}
			if n > 0 {
				m := interns[ci]
				if m == nil {
					m = make(map[string]int32, 16)
					for sid, s := range ev.Sids {
						m[s] = int32(sid)
					}
					interns[ci] = m
				}
				if sid, seen := m[span]; seen {
					ev.Sid[code] = sid
					continue
				}
				m[span] = int32(n)
			}
			ev.Sid[code] = int32(n)
			ev.Sids = append(ev.Sids, span)
		}
	}
	return evs
}

// evalLHS evaluates every LHS cell of tableau row ri over its column's
// dictionary, returning the evaluations and code vectors aligned with
// p.LHS.
func (p *PFD) evalLHS(t *relation.Table, ri int) ([]*SpanEval, [][]uint32) {
	row := p.Tableau[ri]
	evs := make([]*SpanEval, len(p.LHS))
	codes := make([][]uint32, len(p.LHS))
	for j, a := range p.LHS {
		ci := t.MustCol(a)
		evs[j] = EvalCellSpans(row.LHS[j], t.Dict(ci))
		codes[j] = t.Codes(ci)
	}
	return evs, codes
}

// MatchesLHS reports whether table row id matches every LHS cell of
// tableau row ri.
func (p *PFD) MatchesLHS(t *relation.Table, ri, id int) bool {
	row := p.Tableau[ri]
	for j, a := range p.LHS {
		if _, ok := row.LHS[j].Span(t.Value(id, a)); !ok {
			return false
		}
	}
	return true
}

// LHSMatchBitmap evaluates tableau row ri's LHS once over each
// column's dictionary and returns the match rows as a kernel bitmap
// (bit id set iff table row id matches every LHS cell), built by
// chunk-parallel And-combining of the per-attribute match bitmaps.
// Popcount it for coverage counts; combine it with index bitsets
// directly — both share the 64-rows-per-word layout.
func (p *PFD) LHSMatchBitmap(t *relation.Table, ri int) []uint64 {
	evs, codes := p.evalLHS(t, ri)
	words := make([]uint64, kernel.Words(t.NumRows()))
	andSpanBitmaps(words, evs, codes, t.NumRows())
	return words
}

// LHSMatchRows is LHSMatchBitmap expanded to one bool per table row —
// the batch counterpart of MatchesLHS for callers that want positional
// indexing.
func (p *PFD) LHSMatchRows(t *relation.Table, ri int) []bool {
	out := make([]bool, t.NumRows())
	kernel.Expand(out, p.LHSMatchBitmap(t, ri))
	return out
}

// Satisfied reports T |= ψ per Section 2.2: for every tableau row, any two
// matching tuples with equivalent LHS spans must match the RHS cell and
// have equivalent RHS spans; rows with all-constant LHS additionally fire
// on single tuples.
func (p *PFD) Satisfied(t *relation.Table) bool {
	return len(p.Violations(t)) == 0
}

// Partition is the LHS-equivalence partition of the rows matching one
// tableau row's LHS: groups of row ids, ascending within each group,
// with the groups ordered by span key. Build is the one group driver
// behind Violations, CountRow and the multi-rule planner's executor
// (internal/plan), so they cannot drift apart. The zero value is ready
// to use; reusing one across builds keeps the scratch off the
// allocator.
type Partition struct {
	single   bool
	gg       kernel.Groups
	bm       []uint64
	keyBuf   []byte
	keys     []string
	groupIdx map[string]int
	groupIDs [][]int32
	order    []int
	covered  int
}

// Build partitions the rows of an nrows-row table that match every LHS
// evaluation evs[j] over its code vector codes[j]; counts are the live
// dictionary multiplicities of evs[0]'s column, read only for a
// single-attribute LHS.
//
// A single-attribute LHS groups rows by interned span id with the
// counting-sort gather — histogram in O(distinct) off the dictionary
// multiplicities, one allocation-free scatter, chunk-parallel on large
// tables. A wider LHS And-combines the per-attribute match bitmaps
// (chunk-parallel) and builds the '\x00'-joined span key only for rows
// that survive the bitmap; zero words skip 64 rows at a time. Groups
// are sorted by span key and row ids ascend, so the partition is
// identical at any worker or chunk count.
func (pt *Partition) Build(evs []*SpanEval, codes [][]uint32, counts []int, nrows int) {
	pt.order = pt.order[:0]
	pt.covered = 0
	pt.single = len(evs) == 1
	if pt.single {
		ev := evs[0]
		gatherSpanGroups(&pt.gg, codes[0], ev, counts, nrows)
		for i := 0; i < pt.gg.Len(); i++ {
			pt.order = append(pt.order, i)
			pt.covered += len(pt.gg.Rows(i))
		}
		sort.Slice(pt.order, func(i, j int) bool {
			return ev.Sids[pt.gg.Sid(pt.order[i])] < ev.Sids[pt.gg.Sid(pt.order[j])]
		})
		return
	}

	if cap(pt.bm) < kernel.Words(nrows) {
		pt.bm = make([]uint64, kernel.Words(nrows))
	}
	pt.bm = pt.bm[:kernel.Words(nrows)]
	andSpanBitmaps(pt.bm, evs, codes, nrows)
	if pt.groupIdx == nil {
		pt.groupIdx = make(map[string]int)
	}
	clear(pt.groupIdx)
	pt.keys = pt.keys[:0]
	pt.groupIDs = pt.groupIDs[:0]
	for wi, w := range pt.bm {
		base := wi * kernel.WordBits
		for w != 0 {
			id := base + bits.TrailingZeros64(w)
			w &= w - 1
			pt.covered++
			pt.keyBuf = pt.keyBuf[:0]
			for j, ev := range evs {
				pt.keyBuf = append(pt.keyBuf, ev.Sids[ev.Sid[codes[j][id]]]...)
				pt.keyBuf = append(pt.keyBuf, '\x00') // unambiguous separator
			}
			gi, seen := pt.groupIdx[string(pt.keyBuf)]
			if !seen {
				gi = len(pt.groupIDs)
				k := string(pt.keyBuf)
				pt.groupIdx[k] = gi
				pt.keys = append(pt.keys, k)
				pt.groupIDs = append(pt.groupIDs, nil)
			}
			pt.groupIDs[gi] = append(pt.groupIDs[gi], int32(id))
		}
	}
	for i := range pt.keys {
		pt.order = append(pt.order, i)
	}
	sort.Slice(pt.order, func(i, j int) bool { return pt.keys[pt.order[i]] < pt.keys[pt.order[j]] })
}

// Len returns the number of groups.
func (pt *Partition) Len() int { return len(pt.order) }

// Rows returns group i's row ids, ascending. The slice aliases the
// partition's scratch and is valid until the next Build.
func (pt *Partition) Rows(i int) []int32 {
	if pt.single {
		return pt.gg.Rows(pt.order[i])
	}
	return pt.groupIDs[pt.order[i]]
}

// Covered returns the number of rows in the partition: the rows that
// match every LHS cell.
func (pt *Partition) Covered() int { return pt.covered }

// partitionRow evaluates tableau row ri over t's dictionaries, builds
// its LHS partition into pt, and returns the RHS cell's evaluation.
func (p *PFD) partitionRow(pt *Partition, t *relation.Table, ri, rhsCol int) *SpanEval {
	evs, codes := p.evalLHS(t, ri)
	var counts []int
	if len(p.LHS) == 1 {
		counts = t.DictCounts(t.MustCol(p.LHS[0]))
	}
	pt.Build(evs, codes, counts, t.NumRows())
	return EvalCellSpans(p.Tableau[ri].RHS, t.Dict(rhsCol))
}

// Violations enumerates all violations of the PFD on t.
//
// The check runs in O(|T|) per tableau row by grouping tuples on their
// joint LHS equivalence key instead of enumerating pairs: two tuples
// violate iff they share a group and their RHS spans differ (or fail to
// match the RHS cell). Within a violating group the strict-majority span,
// when one exists, is taken as the consensus and each deviating tuple
// yields one Violation whose ErrorCell is its RHS cell.
//
// Pattern matching runs once per (tableau cell, distinct column value):
// every cell is evaluated over its column's dictionary up front, for
// this call only, and the rows are grouped by Partition.Build on the
// internal/kernel scan primitives. Group emission order is sorted by
// span key and row ids are ascending, so the output is byte-identical
// at any worker or chunk count.
//
// internal/plan drives the same Partition and group check (ScanGroup)
// with cell evaluations pooled across rules; its per-rule output is
// pinned byte-identical to this method by the differential suite.
func (p *PFD) Violations(t *relation.Table) []Violation {
	var out []Violation
	var pt Partition
	var scan GroupScan
	rhsCol := t.MustCol(p.RHS)
	rhsCodes := t.Codes(rhsCol)
	for ri, row := range p.Tableau {
		rhsEv := p.partitionRow(&pt, t, ri, rhsCol)
		constant := row.ConstantLHS()
		for gi := 0; gi < pt.Len(); gi++ {
			out = append(out, p.groupViolations(&scan, ri, row, pt.Rows(gi), constant, rhsCodes, rhsEv)...)
		}
	}
	return out
}

// CountRow returns how many rows of t match tableau row ri's LHS and
// how many violations that row yields — the length of ri's block in
// Violations — from one partition pass that materializes no Violation.
func (p *PFD) CountRow(t *relation.Table, ri int) (covered, violations int) {
	var pt Partition
	var scan GroupScan
	rhsCol := t.MustCol(p.RHS)
	rhsCodes := t.Codes(rhsCol)
	rhsEv := p.partitionRow(&pt, t, ri, rhsCol)
	constant := p.Tableau[ri].ConstantLHS()
	for gi := 0; gi < pt.Len(); gi++ {
		violations += scan.check(pt.Rows(gi), constant, rhsCodes, rhsEv)
	}
	return pt.Covered(), violations
}

// GroupScan is the reusable state for checking one LHS-equivalence
// group: per-RHS-span-id tuple lists plus the non-matching tuples. Span
// ids are dense per evaluation, so occupancy is tracked with an epoch
// stamp instead of clearing or hashing. Reusing it across groups keeps
// the scan off the allocator. Exported so the multi-rule planner's
// executor (internal/plan) carries one per worker; the zero value is
// ready to use.
type GroupScan struct {
	slotOf      []int32  // span id -> slot for the current group
	stamp       []uint32 // span id -> epoch at which slotOf is valid
	epoch       uint32
	spanKeys    []string
	spanIDs     [][]int32
	nonMatching []int32
	order       []int
	major       int // slot of the strict-majority span, -1 when none
}

// reset prepares the scan for a new group over numSids possible span
// ids, retaining capacity.
func (sc *GroupScan) reset(numSids int) {
	if len(sc.slotOf) < numSids {
		sc.slotOf = make([]int32, numSids)
		sc.stamp = make([]uint32, numSids)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: invalidate everything
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.spanKeys = sc.spanKeys[:0]
	sc.spanIDs = sc.spanIDs[:0]
	sc.nonMatching = sc.nonMatching[:0]
	sc.order = sc.order[:0]
}

// addSpan records id under span id sid, assigning a slot on first sight
// while reusing the tuple-slice capacity of earlier groups.
func (sc *GroupScan) addSpan(sid int32, span string, id int32) {
	var slot int32
	if sc.stamp[sid] == sc.epoch {
		slot = sc.slotOf[sid]
	} else {
		slot = int32(len(sc.spanKeys))
		sc.stamp[sid] = sc.epoch
		sc.slotOf[sid] = slot
		sc.spanKeys = append(sc.spanKeys, span)
		if len(sc.spanIDs) < cap(sc.spanIDs) {
			sc.spanIDs = sc.spanIDs[:slot+1]
			sc.spanIDs[slot] = sc.spanIDs[slot][:0]
		} else {
			sc.spanIDs = append(sc.spanIDs, nil)
		}
	}
	sc.spanIDs[slot] = append(sc.spanIDs[slot], id)
}

// ScanGroup checks one LHS-equivalence group of tableau row ri against
// the RHS evaluation and returns its violations — the per-group scan
// Violations runs, exported for the multi-rule planner: the planner
// builds each group partition once per shared LHS signature and fans
// it out to every member rule through this entry point, with rhsEv
// drawn from the shared evaluation pool. ids must be the group's row
// ids ascending and constant the tableau row's ConstantLHS verdict;
// the output is then byte-identical to the corresponding slice of
// Violations' result.
func (p *PFD) ScanGroup(sc *GroupScan, ri int, ids []int32, constant bool, rhsCodes []uint32, rhsEv *SpanEval) []Violation {
	return p.groupViolations(sc, ri, p.Tableau[ri], ids, constant, rhsCodes, rhsEv)
}

// check is the group check: it files the group's rows by RHS span id
// (the per-tuple RHS verdict comes from the precomputed dictionary
// evaluation), finds the strict-majority span, and returns how many
// violations the group yields. groupViolations materializes exactly
// that many from the state check leaves in sc; CountRow stops here.
func (sc *GroupScan) check(ids []int32, constant bool, rhsCodes []uint32, rhsEv *SpanEval) int {
	sc.reset(len(rhsEv.Sids))
	for _, id := range ids {
		sid := rhsEv.Sid[rhsCodes[id]]
		if sid < 0 {
			sc.nonMatching = append(sc.nonMatching, id)
			continue
		}
		sc.addSpan(sid, rhsEv.Sids[sid], id)
	}
	n := 0
	// Constant-LHS rows fire on single tuples: a non-matching RHS is a
	// violation even with no second tuple (Example 6, "r4 violates ψ1").
	// Variable rows need a matching partner to witness the breach.
	if constant || len(ids) >= 2 {
		n = len(sc.nonMatching)
	}
	sc.major = -1
	if len(sc.spanKeys) > 1 {
		// Conflicting spans within one equivalence group: every tuple
		// outside the strict-majority span (all of them in a tie)
		// violates.
		n += len(ids) - len(sc.nonMatching)
		sc.major = sc.strictMajority()
		if sc.major >= 0 {
			n -= len(sc.spanIDs[sc.major])
		}
	}
	return n
}

// groupViolations checks one LHS-equivalence group and materializes
// its violations.
func (p *PFD) groupViolations(sc *GroupScan, ri int, row Row, ids []int32, constant bool, rhsCodes []uint32, rhsEv *SpanEval) []Violation {
	n := sc.check(ids, constant, rhsCodes, rhsEv)
	if n == 0 {
		return nil
	}
	out := make([]Violation, 0, n)
	if constant {
		for _, id := range sc.nonMatching {
			out = append(out, Violation{
				TableauRow:   ri,
				ErrorCell:    relation.Cell{Row: int(id), Col: p.RHS},
				Cells:        p.tupleCells(int(id)),
				Expected:     p.constantExpectation(row),
				HasConsensus: p.constantExpectation(row) != "",
				WitnessRow:   -1,
			})
		}
	} else if len(ids) >= 2 {
		for _, id := range sc.nonMatching {
			w := witnessOther(ids, id)
			out = append(out, Violation{
				TableauRow: ri,
				ErrorCell:  relation.Cell{Row: int(id), Col: p.RHS},
				Cells:      append(p.tupleCells(int(id)), p.tupleCells(w)...),
				WitnessRow: w,
			})
		}
	}

	if len(sc.spanKeys) <= 1 {
		return out
	}
	// Report the minority tuples against the strict-majority consensus
	// when one exists (tie groups are reported but carry no repair).
	var consensus string
	var consensusIDs []int32
	if sc.major >= 0 {
		consensus, consensusIDs = sc.spanKeys[sc.major], sc.spanIDs[sc.major]
	}
	for i := range sc.spanKeys {
		sc.order = append(sc.order, i)
	}
	sort.Slice(sc.order, func(i, j int) bool { return sc.spanKeys[sc.order[i]] < sc.spanKeys[sc.order[j]] })
	for _, si := range sc.order {
		if si == sc.major {
			continue
		}
		for _, id := range sc.spanIDs[si] {
			v := Violation{
				TableauRow:   ri,
				ErrorCell:    relation.Cell{Row: int(id), Col: p.RHS},
				Expected:     consensus,
				HasConsensus: sc.major >= 0,
				WitnessRow:   -1,
			}
			if sc.major >= 0 {
				v.WitnessRow = int(consensusIDs[0])
				v.Cells = append(p.tupleCells(int(id)), p.tupleCells(v.WitnessRow)...)
			} else {
				v.Cells = p.tupleCells(int(id))
			}
			out = append(out, v)
		}
	}
	return out
}

// constantExpectation returns the RHS constant when the row pins it.
func (p *PFD) constantExpectation(row Row) string {
	if c, ok := row.RHS.Constant(); ok {
		return c
	}
	return ""
}

// tupleCells lists the LHS and RHS cells of tuple id, as the paper counts
// violation cells.
func (p *PFD) tupleCells(id int) []relation.Cell {
	out := make([]relation.Cell, 0, len(p.LHS)+1)
	for _, a := range p.LHS {
		out = append(out, relation.Cell{Row: id, Col: a})
	}
	out = append(out, relation.Cell{Row: id, Col: p.RHS})
	return out
}

// strictMajority returns the slot of the span held by more than half
// the group's matching tuples, or -1 when no span is.
func (sc *GroupScan) strictMajority() int {
	total := 0
	for _, ids := range sc.spanIDs {
		total += len(ids)
	}
	for si, ids := range sc.spanIDs {
		if 2*len(ids) > total {
			return si
		}
	}
	return -1
}

func witnessOther(ids []int32, not int32) int {
	for _, id := range ids {
		if id != not {
			return int(id)
		}
	}
	return -1
}
