// Package pfd implements the paper's primary contribution: pattern
// functional dependencies (Section 2). A PFD R(X -> Y, Tp) embeds a
// standard FD and constrains it with a pattern tableau whose cells are
// constrained patterns or the wildcard '⊥'. Constant tableau rows apply to
// single tuples; variable rows apply to tuple pairs whose constrained LHS
// spans agree.
package pfd

import (
	"fmt"
	"strings"

	"pfd/internal/pattern"
)

// A Cell is one tableau entry: a constrained pattern, or the wildcard
// (unnamed variable '⊥') when Pattern is nil. The wildcard matches any
// value and compares by full string equality, exactly as in CFDs.
type Cell struct {
	Pattern *pattern.Pattern
}

// Wildcard returns the '⊥' cell.
func Wildcard() Cell { return Cell{} }

// Pat wraps a pattern in a cell.
func Pat(p *pattern.Pattern) Cell { return Cell{Pattern: p} }

// IsWildcard reports whether the cell is '⊥'.
func (c Cell) IsWildcard() bool { return c.Pattern == nil }

// Match reports whether value v is generated by the cell (t[A] |-> tp[A]).
func (c Cell) Match(v string) bool {
	if c.IsWildcard() {
		return true
	}
	return c.Pattern.Match(v)
}

// Span returns the constrained span of v under the cell, used as the
// equivalence key; for wildcards it is the whole value.
func (c Cell) Span(v string) (string, bool) {
	if c.IsWildcard() {
		return v, true
	}
	return c.Pattern.ConstrainedSpan(v)
}

// Equivalent implements t1[A] ≡tp[A] t2[A].
func (c Cell) Equivalent(v1, v2 string) bool {
	if c.IsWildcard() {
		return v1 == v2
	}
	return c.Pattern.Equivalent(v1, v2)
}

// Constant reports whether the cell pins its constrained span to a single
// string (so the dependency fires on single tuples), returning that span.
func (c Cell) Constant() (string, bool) {
	if c.IsWildcard() {
		return "", false
	}
	return c.Pattern.ConstrainedConstant()
}

// String renders the cell in tableau syntax; '⊥' is written '_', and
// the empty-constant pattern (matching exactly "") is written '()' so
// it stays distinguishable from both (ParseCell inverts all three).
func (c Cell) String() string {
	var b strings.Builder
	c.render(&b)
	return b.String()
}

// render writes String's rendering into b.
func (c Cell) render(b *strings.Builder) {
	switch {
	case c.IsWildcard():
		b.WriteByte('_')
	case len(c.Pattern.Tokens) == 0:
		b.WriteString("()")
	default:
		c.Pattern.Render(b)
	}
}

// Equal reports structural equality: both wildcards, or structurally
// equal patterns (same tokens, same constrained region).
func (c Cell) Equal(d Cell) bool {
	if c.IsWildcard() || d.IsWildcard() {
		return c.IsWildcard() == d.IsWildcard()
	}
	return c.Pattern.Equal(d.Pattern)
}

// A Row is one tableau tuple tp: LHS cells aligned with PFD.LHS, plus the
// RHS cell.
type Row struct {
	LHS []Cell
	RHS Cell
}

// ConstantLHS reports whether every LHS cell has a constant constrained
// span, in which case the row applies to single tuples (Section 2.2).
func (r Row) ConstantLHS() bool {
	for _, c := range r.LHS {
		if _, ok := c.Constant(); !ok {
			return false
		}
	}
	return len(r.LHS) > 0
}

// A PFD is a pattern functional dependency in the paper's normal form:
// the RHS is a single attribute (Section 2.1). Multi-attribute RHS
// dependencies decompose into normal-form PFDs (restriction iv of §4.2).
type PFD struct {
	Relation string
	LHS      []string
	RHS      string
	Tableau  []Row
}

// New constructs a PFD after validating its attributes (a non-empty
// LHS naming each attribute once, none of them the RHS) and the
// tableau arity.
func New(relation string, lhs []string, rhs string, tableau ...Row) (*PFD, error) {
	if len(lhs) == 0 {
		return nil, fmt.Errorf("pfd: empty LHS")
	}
	for _, a := range lhs {
		if a == rhs {
			return nil, fmt.Errorf("pfd: trivial dependency, %q appears on both sides", a)
		}
	}
	if a, ok := repeatedAttr(lhs, func(a string) string { return a }); ok {
		return nil, &DuplicateAttrError{Side: "LHS", Attr: a}
	}
	for i, row := range tableau {
		if len(row.LHS) != len(lhs) {
			return nil, fmt.Errorf("pfd: tableau row %d has %d LHS cells, want %d", i, len(row.LHS), len(lhs))
		}
	}
	return &PFD{Relation: relation, LHS: append([]string(nil), lhs...), RHS: rhs, Tableau: tableau}, nil
}

// MustNew is New that panics on error, for constants and tests.
func MustNew(relation string, lhs []string, rhs string, tableau ...Row) *PFD {
	p, err := New(relation, lhs, rhs, tableau...)
	if err != nil {
		panic(err)
	}
	return p
}

// Embedded returns the embedded FD "[X] -> [B]" (EmbeddedFD).
func (p *PFD) Embedded() string { return EmbeddedFD(p.LHS, p.RHS) }

// EmbeddedFD renders the embedded FD X -> B as "[a,b] -> [c]": the
// display string and the one key under which discovery output, ground
// truth, the out-of-core sample screen and rule maintenance match
// dependencies.
func EmbeddedFD(lhs []string, rhs string) string {
	return "[" + strings.Join(lhs, ",") + "] -> [" + rhs + "]"
}

// String renders the PFD in the paper's λ notation, one tableau row per
// constraint, e.g. "Zip([zip = (900)\D{2}] -> [city = (Los\ Angeles)])",
// through Line's printer: relation and attribute names have the
// grammar's delimiter runes backslash-escaped so ParsePFD inverts the
// rendering even for names carrying commas, brackets, parens, or '='.
func (p *PFD) String() string {
	var b strings.Builder
	for i, row := range p.Tableau {
		if i > 0 {
			b.WriteString("; ")
		}
		l := Line{Relation: p.Relation, LHS: make([]Term, len(p.LHS)), RHS: []Term{{p.RHS, row.RHS}}}
		for j, a := range p.LHS {
			l.LHS[j] = Term{a, row.LHS[j]}
		}
		l.write(&b)
	}
	if len(p.Tableau) == 0 {
		writeName(&b, p.Relation)
		b.WriteString("([")
		for i, a := range p.LHS {
			if i > 0 {
				b.WriteByte(',')
			}
			writeName(&b, a)
		}
		b.WriteString("] -> [")
		writeName(&b, p.RHS)
		b.WriteString("]" + emptyMarker)
	}
	return b.String()
}

// Equal reports structural equality of two PFDs: same relation, same
// embedded FD, and tableaux of pairwise Equal cells in the same order.
func (p *PFD) Equal(q *PFD) bool {
	if p.Relation != q.Relation || p.RHS != q.RHS ||
		len(p.LHS) != len(q.LHS) || len(p.Tableau) != len(q.Tableau) {
		return false
	}
	for i := range p.LHS {
		if p.LHS[i] != q.LHS[i] {
			return false
		}
	}
	for i, row := range p.Tableau {
		if !row.RHS.Equal(q.Tableau[i].RHS) {
			return false
		}
		for j, c := range row.LHS {
			if !c.Equal(q.Tableau[i].LHS[j]) {
				return false
			}
		}
	}
	return true
}

// Coverage returns the number of table rows matched by at least one
// tableau row's LHS — the paper's coverage measure (restriction ii).
// matchRow reports whether table row id matches tableau row ri.
func Coverage(numRows int, tableau int, matches func(ri, id int) bool) int {
	covered := 0
	for id := 0; id < numRows; id++ {
		for ri := 0; ri < tableau; ri++ {
			if matches(ri, id) {
				covered++
				break
			}
		}
	}
	return covered
}
