// Package inference implements the reasoning machinery of Section 3: the
// six inference axioms of Figure 3 (Reflexivity, Inconsistency-EFQ,
// Augmentation, Transitivity, Reduction, LHS-Generalization), the
// PFD-closure algorithm of Figure 7, implication checking, and the
// small-model consistency test of Theorem 3.
//
// Following the paper ("since tuples in Tp are independent from each
// other, it is sufficient to reason about R(X -> Y, tp) for each tp"),
// the unit of reasoning is a single-row PFD over named attributes.
package inference

import (
	"fmt"

	"pfd/internal/pattern"
	"pfd/internal/pfd"
)

// A Rule is a single-tableau-row PFD used by the inference system:
// X -> Y with one constrained pattern (or wildcard) per attribute on each
// side. Unlike pfd.PFD it permits multi-attribute RHS and overlapping
// X and Y, which the axioms need (e.g. Augmentation derives XA -> YA).
type Rule struct {
	Relation string
	// LHS and RHS map attribute names to cells. An attribute may appear
	// on both sides with different patterns (the paper's AL / AR).
	LHS map[string]pfd.Cell
	RHS map[string]pfd.Cell
}

// NewRule builds a rule; cells default to wildcard for attributes listed
// without patterns.
func NewRule(relation string) *Rule {
	return &Rule{Relation: relation, LHS: map[string]pfd.Cell{}, RHS: map[string]pfd.Cell{}}
}

// WithLHS adds an LHS attribute with its cell.
func (r *Rule) WithLHS(attr string, c pfd.Cell) *Rule {
	r.LHS[attr] = c
	return r
}

// WithRHS adds an RHS attribute with its cell.
func (r *Rule) WithRHS(attr string, c pfd.Cell) *Rule {
	r.RHS[attr] = c
	return r
}

// Clone deep-copies the rule's maps (cells are immutable).
func (r *Rule) Clone() *Rule {
	out := NewRule(r.Relation)
	for k, v := range r.LHS {
		out.LHS[k] = v
	}
	for k, v := range r.RHS {
		out.RHS[k] = v
	}
	return out
}

// cellRestricts reports tp[A] ⊆ t'p[A]: equivalence under a refines
// equivalence under b. Wildcards compare whole values, i.e. the finest
// equivalence, so a wildcard refines everything and is refined only by
// full-equality cells.
func cellRestricts(a, b pfd.Cell) bool {
	switch {
	case a.IsWildcard() && b.IsWildcard():
		return true
	case a.IsWildcard():
		// Whole-value equality refines any pattern's equivalence provided
		// every value matches b's pattern — unknowable without the
		// pattern matching all strings; only \A*-like cells qualify.
		return pattern.LangContains(b.Pattern, anyStar)
	case b.IsWildcard():
		// b compares whole values; a refines that only if a does too.
		return a.Pattern.FullyConstrained() || a.Pattern.IsConstant()
	default:
		return pattern.Restricts(a.Pattern, b.Pattern)
	}
}

var anyStar = pattern.MustParse(`\A*`)

// Reflexivity derives R(X -> A, tp) for A in X with tp[AL] ⊆ tp[AR]
// (Figure 3). Given the rule's LHS, it returns X -> X with AR = AL.
func Reflexivity(relation string, lhs map[string]pfd.Cell) *Rule {
	out := NewRule(relation)
	for a, c := range lhs {
		out.LHS[a] = c
		out.RHS[a] = c // tp[AL] = tp[AR] trivially satisfies ⊆
	}
	return out
}

// Augmentation derives R(XA -> YA, t'p) from R(X -> Y, tp) for A not in
// XY, with t'p[AL] = t'p[AR] (Figure 3).
func Augmentation(r *Rule, attr string, c pfd.Cell) (*Rule, error) {
	if _, ok := r.LHS[attr]; ok {
		return nil, fmt.Errorf("inference: %q already in LHS", attr)
	}
	if _, ok := r.RHS[attr]; ok {
		return nil, fmt.Errorf("inference: %q already in RHS", attr)
	}
	out := r.Clone()
	out.LHS[attr] = c
	out.RHS[attr] = c
	return out, nil
}

// Transitivity derives R(X -> Z, t”p) from R(X -> Y, tp) and
// R(Y -> Z, t'p) when tp[A] ⊆ t'p[A] for every A in Y (Figure 3).
func Transitivity(r1, r2 *Rule) (*Rule, error) {
	for a, c2 := range r2.LHS {
		c1, ok := r1.RHS[a]
		if !ok {
			return nil, fmt.Errorf("inference: attribute %q of the second rule's LHS is not derived by the first", a)
		}
		if !cellRestricts(c1, c2) {
			return nil, fmt.Errorf("inference: pattern for %q does not subsume (%s ⊄ %s)", a, c1, c2)
		}
	}
	out := NewRule(r1.Relation)
	for a, c := range r1.LHS {
		out.LHS[a] = c
	}
	for a, c := range r2.RHS {
		out.RHS[a] = c
	}
	return out, nil
}

// Reduction drops a wildcard LHS attribute B when the (single) RHS cell is
// a constant (Figure 3, carried over from CFDs).
func Reduction(r *Rule, attr string) (*Rule, error) {
	c, ok := r.LHS[attr]
	if !ok {
		return nil, fmt.Errorf("inference: %q not in LHS", attr)
	}
	if !c.IsWildcard() {
		return nil, fmt.Errorf("inference: %q is not a wildcard", attr)
	}
	if len(r.LHS) < 2 {
		return nil, fmt.Errorf("inference: cannot reduce the only LHS attribute")
	}
	for a, rc := range r.RHS {
		if _, isConst := rc.Constant(); !isConst {
			return nil, fmt.Errorf("inference: RHS %q is not a constant", a)
		}
	}
	out := r.Clone()
	delete(out.LHS, attr)
	return out, nil
}

// LHSGeneralization combines two rules that agree everywhere except on
// one LHS attribute B, producing a rule whose B-cell accepts either
// pattern (Figure 3). The restricted pattern language has no union
// operator, so the combination succeeds only when one pattern's language
// contains the other's (the union is then the larger pattern) — otherwise
// the rules stay separate tableau rows, which is semantically equivalent.
func LHSGeneralization(r1, r2 *Rule, attr string) (*Rule, error) {
	c1, ok1 := r1.LHS[attr]
	c2, ok2 := r2.LHS[attr]
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("inference: %q missing from an LHS", attr)
	}
	for a, c := range r1.LHS {
		if a == attr {
			continue
		}
		if other, ok := r2.LHS[a]; !ok || !sameCell(c, other) {
			return nil, fmt.Errorf("inference: rules disagree on LHS %q", a)
		}
	}
	for a, c := range r1.RHS {
		other, ok := r2.RHS[a]
		if !ok || !sameCell(c, other) {
			return nil, fmt.Errorf("inference: rules disagree on RHS %q", a)
		}
	}
	union, err := cellUnion(c1, c2)
	if err != nil {
		return nil, err
	}
	out := r1.Clone()
	out.LHS[attr] = union
	return out, nil
}

func sameCell(a, b pfd.Cell) bool { return a.Equal(b) }

// cellUnion returns a cell matching s iff s matches either input.
func cellUnion(a, b pfd.Cell) (pfd.Cell, error) {
	if a.IsWildcard() || b.IsWildcard() {
		return pfd.Wildcard(), nil
	}
	if pattern.LangContains(a.Pattern, b.Pattern) {
		return a, nil
	}
	if pattern.LangContains(b.Pattern, a.Pattern) {
		return b, nil
	}
	return pfd.Cell{}, fmt.Errorf("inference: union of %s and %s is not expressible in the restricted pattern language", a, b)
}
