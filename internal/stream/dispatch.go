package stream

import (
	"slices"

	"pfd/internal/pattern"
	"pfd/internal/pfd"
)

// This file is the engine's match phase. Both entry points resolve a
// tuple into a value vector (one string per required column, in
// pfd.RequiredColumnRefs order) and hand it to matchRow, which asks each
// PFD's dispatch index for the tableau rows the tuple can match and
// confirms each candidate with the full pattern matchers.
//
// Discovered tableaux are mostly constant rows, and a constant or
// anchored-prefix cell states a literal every matching value carries
// (pattern.Matcher.Anchor). The index files each row under the first
// LHS cell that has such an anchor, keyed by that literal
// (pattern.AnchorIndex), so a tuple costs one map lookup per anchor
// group instead of one pattern match per tableau row. The index is only
// a sound filter: a row it returns may still fail to match, and every
// row it omits could not have matched.

// rowMeta caches the per-tableau-row facts matchRow needs on every tuple.
type rowMeta struct {
	constantLHS bool
	// constRHS is the expected constant when constantLHS and the RHS
	// pins one; "" otherwise — mirroring the sequential Checker, which
	// reports Expected="" for a non-constant RHS mismatch.
	constRHS string
}

// ruleIndex is one PFD's dispatch index. It is built once by NewContext
// and never changes, so concurrent producers read it without a lock.
type ruleIndex struct {
	lhs  []int // value-vector position of each LHS attribute
	rhs  int   // value-vector position of the RHS attribute
	meta []rowMeta
	// anchors[j] files the rows whose first anchored LHS cell is cell
	// j, keyed by that cell's literal.
	anchors []pattern.AnchorIndex
	// scan lists the rows with no anchored LHS cell (wildcards, class
	// runs, general shapes), ascending: they are candidates for every
	// tuple.
	scan []int32
}

// newRuleIndex files p's tableau rows; pos maps a column name to its
// value-vector position.
func newRuleIndex(p *pfd.PFD, pos map[string]int) ruleIndex {
	ix := ruleIndex{
		lhs:     make([]int, len(p.LHS)),
		rhs:     pos[p.RHS],
		meta:    make([]rowMeta, len(p.Tableau)),
		anchors: make([]pattern.AnchorIndex, len(p.LHS)),
	}
	for j, a := range p.LHS {
		ix.lhs[j] = pos[a]
	}
rows:
	for ri, tr := range p.Tableau {
		m := &ix.meta[ri]
		if m.constantLHS = tr.ConstantLHS(); m.constantLHS {
			m.constRHS, _ = tr.RHS.Constant()
		}
		for j, c := range tr.LHS {
			if !c.IsWildcard() && ix.anchors[j].Add(c.Pattern.Compiled(), int32(ri)) {
				continue rows
			}
		}
		ix.scan = append(ix.scan, int32(ri))
	}
	return ix
}

// candidates appends to dst[:0] the tableau rows the tuple vals can
// match, in ascending order: the scan list plus one lookup per anchor
// group.
func (ix *ruleIndex) candidates(vals []string, dst []int32) []int32 {
	dst = append(dst[:0], ix.scan...)
	sources := min(len(ix.scan), 1) // non-empty sorted runs in dst
	for j := range ix.anchors {
		var runs int
		dst, runs = ix.anchors[j].Lookup(vals[ix.lhs[j]], dst)
		sources += runs
	}
	if sources > 1 {
		slices.Sort(dst)
	}
	return dst
}

// matchScratch is the per-call state of the match phase.
type matchScratch struct {
	vals []string // one value per required column
	cand []int32
	key  []byte
	ups  []update
}

// matchRow fills m.ups with the updates the tuple m.vals raises, in
// (pfd, tableau row) order. Each candidate is confirmed with the cell
// matchers, and its key has pfd.LHSKey's layout, so the updates are
// exactly those of matching every tableau row.
func (e *Engine) matchRow(m *matchScratch) {
	m.ups = m.ups[:0]
	for pi, p := range e.pfds {
		ix := &e.index[pi]
		m.cand = ix.candidates(m.vals, m.cand)
	rows:
		for _, ri := range m.cand {
			tr := &p.Tableau[ri]
			m.key = m.key[:0]
			for j, c := range tr.LHS {
				span, ok := c.Span(m.vals[ix.lhs[j]])
				if !ok {
					continue rows
				}
				m.key = append(m.key, span...)
				m.key = append(m.key, '\x00')
			}
			u := update{pfdIdx: pi, rowIdx: int(ri), key: string(m.key)}
			rv := m.vals[ix.rhs]
			meta := &ix.meta[ri]
			if meta.constantLHS && !tr.RHS.Match(rv) {
				u.span, u.kind = meta.constRHS, opConstMismatch
			} else if span, ok := tr.RHS.Span(rv); !ok {
				u.kind = opSpanMiss
			} else {
				u.span, u.kind = span, opApply
			}
			m.ups = append(m.ups, u)
		}
	}
}
