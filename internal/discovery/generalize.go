package discovery

import (
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// generalize implements Figure 4 line 23 and Example 8: given the constant
// tableau rows of a candidate X -> B, try to find one variable row whose
// constrained patterns are a common shape of all the constants, then
// validate it against the whole table, allowing at most δ violating
// tuples among the covered ones. On success the variable PFD replaces the
// constant tableau ("report the general PFD λ instead of the constant
// λ1..λ4"); on any failure generalize returns nil and the constant PFD
// stands. covered is the number of rows the variable row's LHS matches.
func (d *discoverer) generalize(lhs []string, rhs string, rows []pfd.Row) (vp *pfd.PFD, covered int) {
	if len(rows) < 2 {
		return nil, 0 // one constant row carries no shape evidence
	}
	gLHS := make([]pfd.Cell, len(lhs))
	for i := range lhs {
		cells := make([]pfd.Cell, len(rows))
		for ri, r := range rows {
			cells[ri] = r.LHS[i]
		}
		g := generalizeCells(cells)
		if g == nil {
			return nil, 0
		}
		gLHS[i] = *g
	}
	// The RHS becomes the unnamed variable: the generalized dependency
	// asserts agreement, not a constant (ψ2/ψ4 in Figure 2).
	vp = pfd.MustNew(d.t.Name, lhs, rhs, pfd.Row{LHS: gLHS, RHS: pfd.Wildcard()})

	// Validation on all records, including those below the support
	// threshold (Example 8 applies the rule on r9 and r10): one pass of
	// the group check Violations runs, counting covered rows and
	// violations without materializing any Violation.
	covered, violations := vp.Count(d.t)
	if covered == 0 || violations > d.params.allowed(covered) {
		return nil, 0
	}
	return vp, covered
}

// generalizeCells finds the common variable form of one attribute's
// tableau cells:
//
//   - whole-value constants (e.g. Egypt, Yemen) generalize to the unnamed
//     variable '⊥' — plain value agreement, as in Example 8's country;
//   - separator-terminated first tokens (John\ , Susan\ ) generalize to
//     the shared token shape, e.g. (\LU\LL+\ )\A*;
//   - fixed-position prefixes of code-like values (900, 100) generalize
//     to a constrained prefix of the column shape, e.g. (\D{3})\D{2}.
//
// Cells of mixed kinds, or whose constants have no common shape in the
// restricted pattern language, do not generalize.
func generalizeCells(cells []pfd.Cell) *pfd.Cell {
	kind := cellKind(cells[0])
	for _, c := range cells[1:] {
		if cellKind(c) != kind {
			return nil
		}
	}
	switch kind {
	case kindWhole:
		w := pfd.Wildcard()
		return &w
	case kindToken:
		toks := make([]string, len(cells))
		var sep rune
		for i, c := range cells {
			body, s := tokenConstant(c)
			if i > 0 && s != sep {
				return nil
			}
			sep = s
			toks[i] = body
		}
		g := pattern.GeneralizeFirstToken(toks, sep)
		if g == nil {
			return nil
		}
		return cellOf(g)
	case kindPrefix:
		// Prefixes of different lengths generalize by truncating every
		// constant to the shortest one — e.g. constants 900, 9000, 6060
		// agree on a determining 3-digit prefix, giving (\D{3})\A*.
		// Validation on the whole table decides whether the coarser
		// grouping really holds.
		consts := make([]string, len(cells))
		minLen := -1
		for i, c := range cells {
			s, _ := c.Pattern.ConstrainedConstant()
			consts[i] = s
			if n := len([]rune(s)); minLen < 0 || n < minLen {
				minLen = n
			}
		}
		if minLen <= 0 {
			return nil
		}
		for i, s := range consts {
			consts[i] = string([]rune(s)[:minLen])
		}
		shape := pattern.GeneralizeStrings(consts)
		if shape == nil {
			return nil
		}
		n := len(shape.Tokens)
		toks := append(shape.Tokens, pattern.Star(pattern.Any))
		return cellOf(pattern.NewConstrained(toks, 0, n))
	default:
		return nil
	}
}

type kind uint8

const (
	kindWhole  kind = iota // fully-constrained constant (whole value)
	kindToken              // constant + separator + \A*
	kindPrefix             // anchored constant prefix + \A*
	kindOther
)

func cellKind(c pfd.Cell) kind {
	if c.IsWildcard() || c.Pattern == nil {
		return kindWhole
	}
	p := c.Pattern
	if p.IsConstant() && p.FullyConstrained() {
		return kindWhole
	}
	if _, ok := tokenConstant(c); ok != 0 {
		return kindToken
	}
	if _, ok := p.ConstrainedConstant(); ok && p.ConStart == 0 {
		return kindPrefix
	}
	return kindOther
}

// tokenConstant recognizes cells of the form (body sep)\A* built by
// buildCell for tokenized columns, returning the body and separator.
func tokenConstant(c pfd.Cell) (string, rune) {
	p := c.Pattern
	if p == nil || p.ConStart != 0 || !p.Constrained() {
		return "", 0
	}
	n := len(p.Tokens)
	if p.ConEnd != n-1 || n < 2 {
		return "", 0
	}
	last := p.Tokens[n-1]
	if last.Class != pattern.Any || last.Min != 0 || last.Max != pattern.Unbounded {
		return "", 0
	}
	sepTok := p.Tokens[p.ConEnd-1]
	if sepTok.Class != pattern.Literal || !sepTok.Fixed() || sepTok.Min != 1 ||
		!relation.IsSeparator(sepTok.Lit) {
		return "", 0
	}
	var body []rune
	for _, t := range p.Tokens[:p.ConEnd-1] {
		if t.Class != pattern.Literal || !t.Fixed() {
			return "", 0
		}
		for i := 0; i < t.Min; i++ {
			body = append(body, t.Lit)
		}
	}
	if len(body) == 0 {
		return "", 0
	}
	return string(body), sepTok.Lit
}
