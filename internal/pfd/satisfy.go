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
// which codes the cell accepts, each with an interned constrained-span
// id, and per span id the span itself. Spans are interned so that
// grouping and consensus scanning below run on small integers instead
// of hashing span strings per row. Computing the whole structure once
// per (cell, column) turns every per-row pattern invocation into a code
// lookup — the dictionary-encoded layout's central win, since real
// columns have far fewer distinct values than rows.
//
// The accepted codes come in one of two forms, chosen by the cell's
// kind. A cell that anchors a literal (a constant or an anchored
// prefix) accepts few codes, and is sparse: Hits lists the accepted
// codes ascending with their span ids, and Sid is nil. Every other
// cell (wildcards, class runs, general shapes) is dense: Sid maps every
// code to its span id, -1 when the cell rejects it, and Hits is nil.
// SidOf reads either form.
//
// It is exported as the evaluation currency of the multi-rule planner
// (internal/plan): the planner dedupes identical tableau cells across
// rules into one SpanEval each per execute and feeds the results back
// through ScanGroup, so one evaluation serves many PFDs. The structure
// depends only on (cell, dictionary contents); Sids assigns ids in
// first-code order, which makes two evaluations of the same cell over
// the same dictionary identical — the property the sharing relies on.
type SpanEval struct {
	Sid  []int32      // dense: code -> interned span id, -1 when rejected; nil when sparse
	Hits []kernel.Hit // sparse: accepted codes ascending, with span ids
	Sids []string     // span id -> span, in first-code order
}

// Sparse reports whether ev lists its accepted codes in Hits.
func (ev *SpanEval) Sparse() bool { return ev.Sid == nil }

// SidOf returns code's span id, -1 when the cell rejects the code.
func (ev *SpanEval) SidOf(code uint32) int32 {
	if ev.Sid != nil {
		return ev.Sid[code]
	}
	return ev.hitSid(code)
}

// hitSid binary-searches the sparse list for code.
func (ev *SpanEval) hitSid(code uint32) int32 {
	hits := ev.Hits
	for len(hits) > 1 {
		half := len(hits) / 2
		if hits[half].Code <= code {
			hits = hits[half:]
		} else {
			hits = hits[:half]
		}
	}
	if len(hits) == 1 && hits[0].Code == code {
		return hits[0].Sid
	}
	return -1
}

// EvalColumnSpans evaluates every cell of cells over one column
// dictionary in a single pass and returns the evaluations aligned with
// cells. Every entry is evaluated — including retired ones (no longer
// held by any row) — so the result depends only on the dictionary
// contents. Cells that anchor a literal (constants, anchored prefixes)
// are filed in a pattern.AnchorIndex, so a value is confirmed only
// against the cells whose literal it carries, and each such cell comes
// back sparse, listing only the codes it accepts; the rest (wildcards,
// class runs, general shapes) are evaluated on every value into a dense
// vector, with no index lookup at all when no cell anchors. Codes are
// visited in ascending order, so each cell's Sids come out in
// first-code order and its Hits ascend.
func EvalColumnSpans(cells []Cell, dict []string) []*SpanEval {
	evs := make([]*SpanEval, len(cells))
	var ix pattern.AnchorIndex
	var scan []int32
	for i, c := range cells {
		evs[i] = &SpanEval{}
		if c.IsWildcard() || !ix.Add(c.Pattern.Compiled(), int32(i)) {
			evs[i].Sid = make([]int32, len(dict))
			scan = append(scan, int32(i))
		}
		if c.IsWildcard() {
			// A wildcard's span is the value itself, so a dictionary of
			// distinct values gives one span per entry.
			evs[i].Sids = make([]string, 0, len(dict))
		}
	}
	interns := make([]map[string]int32, len(cells))
	anchored := len(scan) < len(cells)
	var buf []int32
	for code, v := range dict {
		cand := scan
		if anchored {
			buf, _ = ix.Lookup(v, append(buf[:0], scan...))
			cand = buf
		}
		for _, ci := range cand {
			ev := evs[ci]
			span, ok := cells[ci].Span(v)
			if !ok {
				if ev.Sid != nil {
					ev.Sid[code] = -1
				}
				continue
			}
			sid := ev.intern(&interns[ci], span)
			if ev.Sid != nil {
				ev.Sid[code] = sid
			} else {
				ev.Hits = append(ev.Hits, kernel.Hit{Code: uint32(code), Sid: sid})
			}
		}
	}
	return evs
}

// intern returns span's id in ev.Sids, appending it on first sight.
// Anchored cells have one span, so the map *m is built only once a
// second distinct span shows up, sized for the spans ev.Sids has room
// for.
func (ev *SpanEval) intern(m *map[string]int32, span string) int32 {
	n := len(ev.Sids)
	if n > 0 && ev.Sids[n-1] == span {
		return int32(n - 1)
	}
	if n > 0 {
		if *m == nil {
			*m = make(map[string]int32, max(16, cap(ev.Sids)))
			for sid, s := range ev.Sids {
				(*m)[s] = int32(sid)
			}
		}
		if sid, seen := (*m)[span]; seen {
			return sid
		}
		(*m)[span] = int32(n)
	}
	ev.Sids = append(ev.Sids, span)
	return int32(n)
}

// Column is one table column as a bound evaluation is read against it:
// the code vector, the live per-code counts, and, when a sparse
// evaluation is gathered over the column, its code→rows postings (nil
// otherwise).
type Column struct {
	Codes  []uint32
	Counts []int
	Post   *kernel.Postings
}

// NewColumn resolves column ci of t, without postings.
func NewColumn(t *relation.Table, ci int) Column {
	return Column{Codes: t.Codes(ci), Counts: t.DictCounts(ci)}
}

// IndexRows builds c's postings unless it has them.
func (c *Column) IndexRows() {
	if c.Post == nil {
		c.Post = kernel.BuildPostings(c.Codes, c.Counts)
	}
}

// tableauBind is one PFD's tableau evaluated over one table, for one
// call: the evaluations of every tableau row's LHS cells and, when
// bound with the RHS, of its RHS cell, with the columns they read.
type tableauBind struct {
	lhs      [][]*SpanEval // [LHS position][tableau row]
	rhs      []*SpanEval   // [tableau row]; nil unless bound withRHS
	cols     []*Column     // [LHS position]
	rhsCodes []uint32
	nrows    int
	row      []*SpanEval // scratch for lhsRow
}

// bind evaluates p's tableau over t — the LHS cells, and the RHS cells
// when withRHS is set — one attribute at a time: the attribute's
// distinct tableau cells go to one EvalColumnSpans call, so its
// dictionary is passed once, not once per tableau row. An LHS column
// with a sparse evaluation gets its postings, which the gathers of
// those evaluations read. It is the one cell evaluation behind
// Violations, Count and LHSMatchBitmap.
func (p *PFD) bind(t *relation.Table, withRHS bool) *tableauBind {
	b := &tableauBind{
		lhs:   make([][]*SpanEval, len(p.LHS)),
		cols:  make([]*Column, len(p.LHS)),
		nrows: t.NumRows(),
		row:   make([]*SpanEval, len(p.LHS)),
	}
	for j, a := range p.LHS {
		ci := t.MustCol(a)
		col := NewColumn(t, ci)
		b.cols[j] = &col
		b.lhs[j] = p.bindColumn(t.Dict(ci), func(ri int) Cell { return p.Tableau[ri].LHS[j] })
		for _, ev := range b.lhs[j] {
			if ev.Sparse() {
				b.cols[j].IndexRows()
				break
			}
		}
	}
	if withRHS {
		ci := t.MustCol(p.RHS)
		b.rhsCodes = t.Codes(ci)
		b.rhs = p.bindColumn(t.Dict(ci), func(ri int) Cell { return p.Tableau[ri].RHS })
	}
	return b
}

// bindColumn evaluates cell(ri) of every tableau row over one column's
// dictionary in one EvalColumnSpans call, each distinct cell (by
// rendering) once, and returns the evaluations by tableau row. A
// one-row tableau has nothing to deduplicate and skips the rendering.
func (p *PFD) bindColumn(dict []string, cell func(ri int) Cell) []*SpanEval {
	if len(p.Tableau) == 1 {
		return EvalColumnSpans([]Cell{cell(0)}, dict)
	}
	var cells []Cell
	at := make([]int, len(p.Tableau))
	index := make(map[string]int)
	for ri := range p.Tableau {
		c := cell(ri)
		k := c.String()
		i, ok := index[k]
		if !ok {
			i = len(cells)
			index[k] = i
			cells = append(cells, c)
		}
		at[ri] = i
	}
	evs := EvalColumnSpans(cells, dict)
	out := make([]*SpanEval, len(p.Tableau))
	for ri, i := range at {
		out[ri] = evs[i]
	}
	return out
}

// lhsRow returns tableau row ri's LHS evaluations in LHS order. The
// slice is scratch, valid until the next call.
func (b *tableauBind) lhsRow(ri int) []*SpanEval {
	for j := range b.lhs {
		b.row[j] = b.lhs[j][ri]
	}
	return b.row
}

// partition builds tableau row ri's LHS partition into pt.
func (b *tableauBind) partition(pt *Partition, ri int) {
	pt.Build(b.lhsRow(ri), b.cols, b.nrows)
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

// LHSMatchBitmap returns the rows of t that match any tableau row's LHS
// as a kernel bitmap (bit id set iff table row id matches every LHS
// cell of some tableau row): the tableau is bound once, and each row's
// match bitmap, the And of the per-attribute match bitmaps, is Or-ed
// in. Popcount it for coverage counts; combine it with other kernel
// bitmaps directly — all share the 64-rows-per-word layout.
func (p *PFD) LHSMatchBitmap(t *relation.Table) []uint64 {
	b := p.bind(t, false)
	words := make([]uint64, kernel.Words(b.nrows))
	row := make([]uint64, len(words))
	var tmp []uint64
	for ri := range p.Tableau {
		andSpanBitmaps(row, &tmp, b.lhsRow(ri), b.cols, b.nrows)
		kernel.OrInPlace(words, row)
	}
	return words
}

// andSpanBitmaps fills dst (kernel.Words(nrows) words) with the AND of
// every LHS evaluation's match bitmap over its column. A dense
// evaluation expands through the code vector; a sparse one sets the
// rows of its codes' postings, in *tmp (grown to dst's length) when it
// is not the first.
func andSpanBitmaps(dst []uint64, tmp *[]uint64, evs []*SpanEval, cols []*Column, nrows int) {
	dst = dst[:kernel.Words(nrows)]
	if len(evs) == 0 {
		// Degenerate empty LHS: every row matches vacuously.
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		if len(dst) > 0 {
			dst[len(dst)-1] = kernel.TailMask(nrows)
		}
		return
	}
	for j, ev := range evs {
		codes := cols[j].Codes[:nrows]
		switch {
		case !ev.Sparse() && j == 0:
			kernel.MatchBitmapSigned(dst, codes, ev.Sid)
		case !ev.Sparse():
			kernel.AndMatchBitmapSigned(dst, codes, ev.Sid)
		case j == 0:
			setHitRows(dst, ev.Hits, cols[j].Post)
		default:
			if cap(*tmp) < len(dst) {
				*tmp = make([]uint64, len(dst))
			}
			*tmp = (*tmp)[:len(dst)]
			setHitRows(*tmp, ev.Hits, cols[j].Post)
			kernel.And(dst, dst, *tmp)
		}
	}
}

// setHitRows overwrites dst with the bitmap of the rows holding any
// code in hits.
func setHitRows(dst []uint64, hits []kernel.Hit, post *kernel.Postings) {
	clear(dst)
	for _, h := range hits {
		kernel.SetSorted(dst, post.Rows(h.Code))
	}
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
// behind Violations, Count and the multi-rule planner's executor
// (internal/plan), so they cannot drift apart. The zero value is ready
// to use; reusing one across builds keeps the scratch off the
// allocator.
type Partition struct {
	single   bool
	gg       kernel.Groups
	bm, tmp  []uint64
	keyBuf   []byte
	keys     []string
	groupIdx map[string]int
	groupIDs [][]int32
	order    []int
	covered  int
}

// Build partitions the rows of an nrows-row table that match every LHS
// evaluation evs[j] over its column cols[j].
//
// A single-attribute LHS groups rows by interned span id with a
// counting-sort gather. A dense evaluation scatters the whole code
// vector, its histogram taken in O(distinct) off the dictionary
// multiplicities; a sparse one reads only the postings of the codes it
// accepts (cols[0].Post), so a constant touches just its own rows. A
// wider LHS And-combines the per-attribute match bitmaps and builds the
// '\x00'-joined span key only for rows that survive the bitmap; zero
// words skip 64 rows at a time. Groups are sorted by span key and row
// ids ascend. Build is serial: a batch call spreads its work over cores
// one level up, in the kernel.ForEach pool of its caller (the planner's
// LHS groups, discovery's candidates).
func (pt *Partition) Build(evs []*SpanEval, cols []*Column, nrows int) {
	pt.order = pt.order[:0]
	pt.covered = 0
	pt.single = len(evs) == 1
	if pt.single {
		ev := evs[0]
		if ev.Sparse() {
			kernel.GatherGroupsPostings(&pt.gg, cols[0].Post, ev.Hits, len(ev.Sids))
		} else {
			kernel.GatherGroupsCodes(&pt.gg, cols[0].Codes, ev.Sid, cols[0].Counts)
		}
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
	andSpanBitmaps(pt.bm, &pt.tmp, evs, cols, nrows)
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
				pt.keyBuf = append(pt.keyBuf, ev.Sids[ev.SidOf(cols[j].Codes[id])]...)
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
// the whole tableau is bound over its columns' dictionaries up front,
// for this call only, and the rows are grouped by Partition.Build on
// the internal/kernel scan primitives. Group emission order is sorted
// by span key and row ids are ascending.
//
// internal/plan drives the same Partition and group check (ScanGroup)
// with cell evaluations pooled across rules; its per-rule output is
// pinned byte-identical to this method by the differential suite.
func (p *PFD) Violations(t *relation.Table) []Violation {
	var out []Violation
	var pt Partition
	var scan GroupScan
	b := p.bind(t, true)
	for ri, row := range p.Tableau {
		b.partition(&pt, ri)
		constant := row.ConstantLHS()
		for gi := 0; gi < pt.Len(); gi++ {
			out = append(out, p.groupViolations(&scan, ri, row, pt.Rows(gi), constant, b.rhsCodes, b.rhs[ri])...)
		}
	}
	return out
}

// Count returns how many rows of t match any tableau row's LHS and how
// many violations the PFD has on t — len(Violations(t)) — from one
// bind and one partition pass per tableau row, materializing no
// Violation.
func (p *PFD) Count(t *relation.Table) (covered, violations int) {
	var pt Partition
	var scan GroupScan
	b := p.bind(t, true)
	// A row matching several tableau rows' LHS is covered once.
	var seen []uint64
	if len(p.Tableau) > 1 {
		seen = make([]uint64, kernel.Words(b.nrows))
	}
	for ri, row := range p.Tableau {
		b.partition(&pt, ri)
		constant := row.ConstantLHS()
		for gi := 0; gi < pt.Len(); gi++ {
			ids := pt.Rows(gi)
			violations += scan.check(ids, constant, b.rhsCodes, b.rhs[ri])
			if seen != nil {
				kernel.SetSorted(seen, ids)
			}
		}
		covered += pt.Covered()
	}
	if seen != nil {
		covered = kernel.PopcountSum(seen)
	}
	return covered, violations
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
// that many from the state check leaves in sc; Count stops here.
func (sc *GroupScan) check(ids []int32, constant bool, rhsCodes []uint32, rhsEv *SpanEval) int {
	sc.reset(len(rhsEv.Sids))
	for _, id := range ids {
		sid := rhsEv.SidOf(rhsCodes[id])
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
