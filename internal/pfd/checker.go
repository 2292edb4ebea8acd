package pfd

import (
	"fmt"
	"strings"

	"pfd/internal/relation"
)

// A Checker validates tuples against a set of PFDs incrementally: each
// appended tuple is checked in O(|Ψ|·|tableau|) against the group state
// accumulated so far, instead of re-scanning the table. This is the
// ingest-time use of PFDs: a cleaning pipeline validates rows as they
// arrive, with the same semantics as batch Violations (modulo the
// batch detector's hindsight — see CheckNext).
type Checker struct {
	pfds []*PFD
	// state[p][tableauRow][lhsKey] tracks the RHS span consensus per
	// equivalence group.
	state []map[int]map[string]*GroupState
	rows  int
	// required lists every column some PFD references, deduplicated,
	// with the first PFD that references it (for error reporting).
	required []RequiredColumn
}

// RequiredColumn pairs a referenced column with the first PFD that
// references it, for error reporting.
type RequiredColumn struct {
	Column string
	PFD    *PFD
}

// RequiredColumnRefs returns every column the PFD set references (LHS
// attributes and RHS attributes), deduplicated in first-reference
// order, each with the first PFD referencing it. Both the sequential
// Checker and the stream engine validate tuples against this
// list.
func RequiredColumnRefs(pfds []*PFD) []RequiredColumn {
	var refs []RequiredColumn
	seen := map[string]bool{}
	add := func(col string, p *PFD) {
		if !seen[col] {
			seen[col] = true
			refs = append(refs, RequiredColumn{Column: col, PFD: p})
		}
	}
	for _, p := range pfds {
		for _, a := range p.LHS {
			add(a, p)
		}
		add(p.RHS, p)
	}
	return refs
}

// MissingColumnError reports an input that lacks a column referenced
// by one of the PFDs: a streamed tuple, which is rejected without being
// folded into the consensus state, or a table given to batch detection
// or repair, which then evaluates nothing.
type MissingColumnError struct {
	Column string
	PFD    *PFD
}

func (e *MissingColumnError) Error() string {
	return fmt.Sprintf("pfd: input is missing column %q required by %s", e.Column, e.PFD.Embedded())
}

// GroupState is the running consensus of one LHS-equivalence group —
// the per-group automaton shared by the sequential Checker and the
// stream engine (internal/stream): both must raise identical
// signals for identical per-group span sequences.
type GroupState struct {
	spans map[string]int // RHS span -> count
	total int
	// best is the most frequent span (ties broken by the smallest
	// span) and bestN its count. Counts only grow, so each fold keeps
	// them current in O(1).
	best  string
	bestN int
}

// NewGroupState creates an empty consensus group.
func NewGroupState() *GroupState { return &GroupState{spans: map[string]int{}} }

// FoldOutcome classifies the consensus signal raised by folding one
// span into a group.
type FoldOutcome uint8

const (
	// FoldAgree: no disagreement signal (unanimous group, or a split
	// with no strict majority — ties never blame anyone).
	FoldAgree FoldOutcome = iota
	// FoldMinority: the folded span deviates from a strict majority —
	// the incoming tuple is the likely culprit.
	FoldMinority
	// FoldRetroactive: the folded span confirms a strict majority
	// while the group still disagrees — earlier minority tuples are
	// now suspect. This re-fires on every majority-side fold until the
	// group converges; the stream keeps no memory of reported
	// findings.
	FoldRetroactive
)

// Fold folds one RHS span into the group and reports the verdict,
// returning the majority span when the outcome is FoldMinority or
// FoldRetroactive.
func (g *GroupState) Fold(span string) (FoldOutcome, string) {
	g.total++
	n := g.spans[span] + 1
	g.spans[span] = n
	if n > g.bestN || (n == g.bestN && span < g.best) {
		g.best, g.bestN = span, n
	}
	if len(g.spans) > 1 && 2*g.bestN > g.total {
		if g.best != span {
			return FoldMinority, g.best
		}
		return FoldRetroactive, g.best
	}
	return FoldAgree, ""
}

// NewChecker creates an incremental checker over the given PFDs.
func NewChecker(pfds []*PFD) *Checker {
	c := &Checker{
		pfds:     pfds,
		state:    make([]map[int]map[string]*GroupState, len(pfds)),
		required: RequiredColumnRefs(pfds),
	}
	for i := range c.state {
		c.state[i] = map[int]map[string]*GroupState{}
	}
	return c
}

// StreamViolation reports one violation raised at ingest time.
type StreamViolation struct {
	PFD        *PFD
	TableauRow int
	Cell       relation.Cell
	// Expected is the current consensus span ("" when the incoming tuple
	// merely disagrees with a so-far-unanimous group without majority).
	Expected string
	// NewTuple reports whether the incoming tuple (rather than an
	// earlier one) is the likely culprit: its span deviates from a
	// strict-majority consensus.
	NewTuple bool
}

// CheckNext validates one tuple (a map from column name to value) and
// folds it into the state. It returns the violations the tuple raises
// now; errors in *earlier* tuples that only become apparent later (the
// majority forming after the dirty tuple arrived) are reported against
// the earlier row id as NewTuple=false findings.
//
// If the tuple lacks a column any PFD references, CheckNext returns a
// *MissingColumnError and the tuple is NOT folded in: the state and the
// row counter are unchanged. (A present-but-non-matching value is not
// an error — the tableau row simply does not apply; only an absent key
// is rejected, since it almost always signals a schema mismatch rather
// than dirty data.)
//
// Semantics note: single-tuple (constant-row) checks are exact; pair
// semantics is approximated by majority — identical to the batch
// detector's consensus rule, but order-dependent for tie groups.
func (c *Checker) CheckNext(tuple map[string]string) ([]StreamViolation, error) {
	for _, rc := range c.required {
		if _, ok := tuple[rc.Column]; !ok {
			return nil, &MissingColumnError{Column: rc.Column, PFD: rc.PFD}
		}
	}
	row := c.rows
	c.rows++
	var out []StreamViolation
	for pi, p := range c.pfds {
		for ri, tr := range p.Tableau {
			key, ok := LHSKey(p, tr, tuple)
			if !ok {
				continue
			}
			// Constant rows fire immediately on RHS mismatch.
			if tr.ConstantLHS() {
				if !tr.RHS.Match(tuple[p.RHS]) {
					exp, _ := tr.RHS.Constant()
					out = append(out, StreamViolation{
						PFD: p, TableauRow: ri,
						Cell:     relation.Cell{Row: row, Col: p.RHS},
						Expected: exp, NewTuple: true,
					})
					continue
				}
			}
			span, ok := tr.RHS.Span(tuple[p.RHS])
			if !ok {
				out = append(out, StreamViolation{
					PFD: p, TableauRow: ri,
					Cell:     relation.Cell{Row: row, Col: p.RHS},
					NewTuple: true,
				})
				continue
			}
			groups := c.state[pi][ri]
			if groups == nil {
				groups = map[string]*GroupState{}
				c.state[pi][ri] = groups
			}
			g := groups[key]
			if g == nil {
				g = NewGroupState()
				groups[key] = g
			}
			switch outcome, maj := g.Fold(span); outcome {
			case FoldMinority:
				out = append(out, StreamViolation{
					PFD: p, TableauRow: ri,
					Cell:     relation.Cell{Row: row, Col: p.RHS},
					Expected: maj, NewTuple: true,
				})
			case FoldRetroactive:
				// Earlier minority tuples are now suspect (row unknown
				// at this layer — reported with Row = -1 sentinel).
				out = append(out, StreamViolation{
					PFD: p, TableauRow: ri,
					Cell:     relation.Cell{Row: -1, Col: p.RHS},
					Expected: maj, NewTuple: false,
				})
			}
		}
	}
	return out, nil
}

// Rows returns how many tuples have been folded in.
func (c *Checker) Rows() int { return c.rows }

// LHSKey returns the tuple's LHS-equivalence key under tableau row tr —
// the NUL-separated concatenation of its constrained LHS spans — or
// ok=false when the row does not apply to the tuple. The Checker keys
// its group state by it; the stream engine builds the same key from its
// value vector.
func LHSKey(p *PFD, tr Row, tuple map[string]string) (string, bool) {
	var b strings.Builder
	for j, a := range p.LHS {
		span, ok := tr.LHS[j].Span(tuple[a])
		if !ok {
			return "", false
		}
		b.WriteString(span)
		b.WriteByte('\x00')
	}
	return b.String(), true
}
