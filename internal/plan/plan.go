// Package plan is the statistics-free multi-rule planner: it compiles
// a ruleset (a []*pfd.PFD) into a shared-evaluation plan and executes
// it through the columnar/bitset kernels, producing per-rule violation
// sets byte-identical to evaluating every PFD independently.
//
// Rules in one ruleset overlap heavily — discovery emits families of
// rules over the same columns, service tenants load rulesets where
// hundreds of rules differ only in a constant — so independent
// evaluation repeats three kinds of work: pattern evaluation of
// identical tableau cells over the same dictionary, the O(rows) group
// gather for identical LHS signatures, and scans of rows no rule can
// match. The plan removes all three:
//
//   - identical (column, cell) pairs across all rules are canonicalized
//     (by the cell's tableau rendering, which round-trips) and interned
//     into one evaluation pool, and each column's pooled cells are
//     evaluated together in one anchored pass over its dictionary
//     (pfd.EvalColumnSpans), so a value is matched only against the
//     cells whose literal it carries;
//   - tableau rows with the same ordered LHS (attribute, cell) list
//     form one group: its row partition (pfd.Partition, the driver
//     (*pfd.PFD).Violations uses) is built once and fanned out to every
//     member rule through pfd.ScanGroup;
//   - groups whose LHS provably matches zero live rows — a constant
//     cell absent from the dictionary, or any cell whose matched
//     dictionary weight is zero — are skipped before any rows pass.
//
// A Plan holds no table state: every execute evaluates the cells it
// needs and drops them when it returns, so compiling a plan per call is
// the intended use.
//
// Planning is greedy and statistics-free in the janus-datalog sense:
// everything it orders or skips by derives from the dictionaries the
// columnar store already maintains (live per-code counts, cell match
// vectors), never from collected table statistics, and construction of
// the structure is a pure pass over the tableaux — microseconds for
// hundreds of rules.
//
// Scheduling freedom is what makes the sharing safe: a rule's output
// is the concatenation of its per-tableau-row blocks in row order, and
// each block depends only on its group's partition — so groups may run
// in any order, on any number of workers, without perturbing a single
// byte of any rule's violation slice. The differential suite pins this
// against independent evaluation on T1–T15 and generated rulesets.
package plan

import (
	"context"
	"runtime"
	"sort"
	"time"

	"pfd/internal/kernel"
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// execWorkers is the width of the kernel.ForEach pool the LHS groups
// run on, the only parallelism of an execute; a variable so tests can
// pin single-worker and many-worker runs against each other.
var execWorkers = runtime.GOMAXPROCS(0)

// cellEntry is one distinct (column, tableau cell) pair of the
// ruleset: the shared-evaluation pool's unit.
type cellEntry struct {
	col  string
	cell pfd.Cell
}

// member is one tableau row of one rule, viewed from its LHS group.
type member struct {
	rule     int
	ri       int
	rhs      int // cell-pool index of the row's RHS cell
	constant bool
}

// group is one distinct ordered LHS signature with every tableau row
// that carries it. members stay in (rule, tableau-row) build order;
// output position is determined by (rule, ri) alone, so member order
// only affects scratch locality.
type group struct {
	lhs     []int // cell-pool indices, LHS order
	members []member
}

// Plan is the compiled shared-evaluation plan for one ruleset. It is
// immutable after New and carries no table state, so one Plan serves
// concurrent executes.
type Plan struct {
	pfds        []*pfd.PFD
	cells       []cellEntry
	groups      []group
	tableauRows int
	buildTime   time.Duration
}

// cellPtrKey is the fast cell-interning key: a cell's pattern pointer
// stands in for its rendering once the rendering has been interned.
// Replicated rules share pattern pointers (copying a tableau row copies
// the *pattern.Pattern, not the pattern), so re-seeing a cell is a
// single map probe with no string work.
type cellPtrKey struct {
	col string
	pat *pattern.Pattern
}

// rowPtrKey memoizes a whole compiled tableau row: rules constructed
// from a shared tableau (the multi-tenant replication case) alias the
// row's LHS backing array and RHS pattern, so their rows resolve to
// the same (group, rhs cell) in one probe. attrs pins the rule's
// column list, which pfd.New copies per rule.
type rowPtrKey struct {
	attrs string
	lhs   *pfd.Cell
	n     int
	rhs   *pattern.Pattern
}

// compiledRow is a row memo hit: everything member construction needs
// except the (rule, ri) coordinates.
type compiledRow struct {
	gi       int
	rhs      int
	constant bool
}

// New compiles the ruleset into a plan. Construction is one pass over
// the tableaux — canonicalize cells, intern LHS signatures — with no
// table in sight and no statistics collection; selectivity is read off
// the dictionaries at execute time. Cells and rows already seen under
// the same pointers skip canonicalization entirely, so replicated
// rulesets compile in one map probe per tableau row.
func New(pfds []*pfd.PFD) *Plan {
	start := time.Now()
	p := &Plan{pfds: pfds}
	cellIdx := make(map[string]int)
	cellPtr := make(map[cellPtrKey]int)
	groupIdx := make(map[string]int)
	rowMemo := make(map[rowPtrKey]compiledRow)
	var keyBuf []byte
	intern := func(col string, c pfd.Cell) int {
		pk := cellPtrKey{col: col, pat: c.Pattern}
		if i, ok := cellPtr[pk]; ok {
			return i
		}
		keyBuf = append(keyBuf[:0], col...)
		keyBuf = append(keyBuf, '\x00')
		keyBuf = append(keyBuf, c.String()...)
		i, ok := cellIdx[string(keyBuf)]
		if !ok {
			i = len(p.cells)
			cellIdx[string(keyBuf)] = i
			p.cells = append(p.cells, cellEntry{col: col, cell: c})
		}
		cellPtr[pk] = i
		return i
	}
	var gBuf, aBuf []byte
	for rule, pf := range pfds {
		aBuf = aBuf[:0]
		for _, a := range pf.LHS {
			aBuf = append(aBuf, a...)
			aBuf = append(aBuf, '\x00')
		}
		aBuf = append(aBuf, pf.RHS...)
		attrs := string(aBuf)
		for ri := range pf.Tableau {
			row := &pf.Tableau[ri]
			p.tableauRows++
			var rk rowPtrKey
			if len(row.LHS) > 0 {
				rk = rowPtrKey{attrs: attrs, lhs: &row.LHS[0], n: len(row.LHS), rhs: row.RHS.Pattern}
				if cr, ok := rowMemo[rk]; ok {
					p.groups[cr.gi].members = append(p.groups[cr.gi].members, member{
						rule: rule, ri: ri, rhs: cr.rhs, constant: cr.constant,
					})
					continue
				}
			}
			rhs := intern(pf.RHS, row.RHS)
			lhs := make([]int, len(pf.LHS))
			gBuf = gBuf[:0]
			for j, a := range pf.LHS {
				lhs[j] = intern(a, row.LHS[j])
				gBuf = appendUvarint(gBuf, uint64(lhs[j]))
			}
			gi, ok := groupIdx[string(gBuf)]
			if !ok {
				gi = len(p.groups)
				groupIdx[string(gBuf)] = gi
				p.groups = append(p.groups, group{lhs: lhs})
			}
			constant := row.ConstantLHS()
			p.groups[gi].members = append(p.groups[gi].members, member{
				rule: rule, ri: ri, rhs: rhs, constant: constant,
			})
			if len(row.LHS) > 0 {
				rowMemo[rk] = compiledRow{gi: gi, rhs: rhs, constant: constant}
			}
		}
	}
	p.buildTime = time.Since(start)
	return p
}

// appendUvarint is the group-signature encoder: unambiguous, no
// separator collisions, one byte per small pool index.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Violations executes the plan against t and returns one violation
// slice per rule, aligned with the ruleset passed to New and
// byte-identical to calling (*pfd.PFD).Violations per rule.
func (p *Plan) Violations(t *relation.Table) [][]pfd.Violation {
	out, _, _ := p.Run(context.Background(), t)
	return out
}

// ViolationsContext is Violations with cancellation observed between
// groups: on cancellation the partial output is discarded and the
// context error returned.
func (p *Plan) ViolationsContext(ctx context.Context, t *relation.Table) ([][]pfd.Violation, error) {
	out, _, err := p.Run(ctx, t)
	return out, err
}

// colState is one table column resolved for this execute.
type colState struct {
	pfd.Column
	dict   []string
	needed []int // cell-pool indices bound over this column, ascending
}

// liveGroup is a group that survived short-circuiting, with its
// scheduling weight.
type liveGroup struct {
	gi     int
	weight int // min matched weight over LHS cells: an upper bound on group rows
}

// Run is ViolationsContext that also reports skipped, the number of
// LHS groups this execute short-circuited as matching no live row.
func (p *Plan) Run(ctx context.Context, t *relation.Table) (out [][]pfd.Violation, skipped int, err error) {
	// Checked up front as well as per group: when every group is
	// short-circuited, no group check runs at all.
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	nrows := t.NumRows()

	// Resolve every referenced column once (MustCol panics on a missing
	// column, exactly as independent evaluation would; repair's
	// DetectContextOptions turns a missing column into an error before
	// either runs).
	cols := make(map[string]*colState)
	var colOrder []*colState
	for ci, e := range p.cells {
		cs, ok := cols[e.col]
		if !ok {
			tc := t.MustCol(e.col)
			cs = &colState{Column: pfd.NewColumn(t, tc), dict: t.Dict(tc)}
			cols[e.col] = cs
			colOrder = append(colOrder, cs)
		}
		cs.needed = append(cs.needed, ci)
	}

	// Bind: evaluate every pooled cell, once, for this execute only —
	// all of one column's cells in one anchored pass over its
	// dictionary. A constant or anchored-prefix cell comes back as the
	// sparse list of the codes it matches, so binding one costs nothing
	// per dictionary entry it misses.
	evs := make([]*pfd.SpanEval, len(p.cells))
	var cells []pfd.Cell
	for _, cs := range colOrder {
		cells = cells[:0]
		for _, ci := range cs.needed {
			cells = append(cells, p.cells[ci].cell)
		}
		for k, ev := range pfd.EvalColumnSpans(cells, cs.dict) {
			evs[cs.needed[k]] = ev
		}
	}

	// Short-circuit + ordering — dictionary-derived selectivity: a
	// group's weight is the minimum matched live weight over its LHS
	// cells, an upper bound on the rows any scan of it can touch. Zero
	// weight skips the group outright: a tableau row with an unmatched
	// LHS cell has no matching tuples, hence no groups and no violations
	// (constant or variable alike). The RHS never short-circuits —
	// tuples whose RHS fails to match are exactly the nonMatching
	// violations. The rest run heaviest first so the pool tail isn't a
	// single large straggler. A sparse LHS cell is gathered from its
	// column's postings, built here once per column that needs them.
	live := make([]liveGroup, 0, len(p.groups))
	for gi := range p.groups {
		g := &p.groups[gi]
		w := nrows
		for _, ci := range g.lhs {
			w = min(w, matchedWeight(evs[ci], cols[p.cells[ci].col].Counts, nrows))
		}
		if w == 0 && len(g.lhs) > 0 {
			skipped++
			continue
		}
		live = append(live, liveGroup{gi: gi, weight: w})
		for _, ci := range g.lhs {
			if evs[ci].Sparse() {
				cols[p.cells[ci].col].IndexRows()
			}
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].weight != live[j].weight {
			return live[i].weight > live[j].weight
		}
		return live[i].gi < live[j].gi
	})

	// Execute on the kernel.ForEach pool, one scratch set per worker.
	// blocks[rule][ri] cells are owned by exactly one group, so workers
	// never share a write target.
	blocks := make([][][]pfd.Violation, len(p.pfds))
	for i, pf := range p.pfds {
		blocks[i] = make([][]pfd.Violation, len(pf.Tableau))
	}
	err = kernel.ForEach(ctx, execWorkers, len(live),
		func() *execScratch { return &execScratch{} },
		func(w *execScratch, n int) error {
			p.runGroup(w, &p.groups[live[n].gi], evs, cols, nrows, blocks)
			return nil
		})
	if err != nil {
		return nil, skipped, err
	}

	// Fan back out: a rule's violations are its tableau-row blocks
	// concatenated in row order — exactly the append order of the
	// independent scan, and nil (not empty) when every block is nil.
	out = make([][]pfd.Violation, len(p.pfds))
	for rule := range p.pfds {
		var vs []pfd.Violation
		for _, b := range blocks[rule] {
			vs = append(vs, b...)
		}
		out[rule] = vs
	}
	return out, skipped, nil
}

// matchedWeight is the number of live rows ev matches over a column
// with live per-code counts counts. A sparse cell's weight is exact,
// the sum of its k codes' counts; a dense cell is bounded by nrows, or
// 0 when it matches no dictionary value at all.
func matchedWeight(ev *pfd.SpanEval, counts []int, nrows int) int {
	if !ev.Sparse() {
		if len(ev.Sids) == 0 {
			return 0
		}
		return nrows
	}
	w := 0
	for _, h := range ev.Hits {
		w += counts[h.Code]
	}
	return w
}

// execScratch is one worker's reusable scan state.
type execScratch struct {
	part  pfd.Partition
	scan  pfd.GroupScan
	dedup map[memberKey][]pfd.Violation
}

// memberKey identifies a member's output within one group. The group
// pins the ordered LHS (column, cell) list, the rhs pool index pins the
// RHS column and cell, and ri pins the reported tableau row — together
// they determine the member's violation block exactly, so members of
// different rules sharing a key scan once and share the block. The
// shared slice is safe because the fan-out copies violation values into
// each rule's own output slice; only the read-only Cells arrays inside
// individual violations stay aliased.
type memberKey struct {
	ri  int
	rhs int
}

// runGroup builds the group's row partition once, through the same
// pfd.Partition driver independent evaluation uses, and scans it for
// every member tableau row with the member's own RHS evaluation.
func (p *Plan) runGroup(w *execScratch, g *group, evs []*pfd.SpanEval, cols map[string]*colState, nrows int, blocks [][][]pfd.Violation) {
	lhsEvs := make([]*pfd.SpanEval, len(g.lhs))
	lhsCols := make([]*pfd.Column, len(g.lhs))
	for j, ci := range g.lhs {
		lhsEvs[j], lhsCols[j] = evs[ci], &cols[p.cells[ci].col].Column
	}
	w.part.Build(lhsEvs, lhsCols, nrows)

	if w.dedup == nil {
		w.dedup = make(map[memberKey][]pfd.Violation)
	}
	clear(w.dedup)
	for _, m := range g.members {
		mk := memberKey{ri: m.ri, rhs: m.rhs}
		if block, ok := w.dedup[mk]; ok {
			blocks[m.rule][m.ri] = block
			continue
		}
		pf := p.pfds[m.rule]
		rhsEv := evs[m.rhs]
		rhsCodes := cols[p.cells[m.rhs].col].Codes
		var block []pfd.Violation
		for i := 0; i < w.part.Len(); i++ {
			block = append(block, pf.ScanGroup(&w.scan, m.ri, w.part.Rows(i), m.constant, rhsCodes, rhsEv)...)
		}
		w.dedup[mk] = block
		blocks[m.rule][m.ri] = block
	}
}
