package inference

import (
	"sort"

	"pfd/internal/pfd"
)

// ParseRule reads the paper's textual constraint notation through the
// one λ-notation grammar, pfd.ParseLine:
//
//	Name([name = (John\ )\A*] -> [gender = M])
//	Zip([zip = (\D{3})\D{2}] -> [city = _])
//
// Either side may list several attributes; a bare attribute is the
// unnamed variable '_'.
func ParseRule(src string) (*Rule, error) {
	l, err := pfd.ParseLine(src)
	if err != nil {
		return nil, err
	}
	r := NewRule(l.Relation)
	for _, t := range l.LHS {
		r.LHS[t.Attr] = t.Cell
	}
	for _, t := range l.RHS {
		r.RHS[t.Attr] = t.Cell
	}
	return r, nil
}

// MustParseRule is ParseRule that panics, for tests and examples.
func MustParseRule(src string) *Rule {
	r, err := ParseRule(src)
	if err != nil {
		panic(err)
	}
	return r
}

// String renders the rule in the paper's notation through pfd.Line's
// printer, each side's attributes sorted.
func (r *Rule) String() string {
	return pfd.Line{Relation: r.Relation, LHS: terms(r.LHS), RHS: terms(r.RHS)}.String()
}

func terms(side map[string]pfd.Cell) []pfd.Term {
	out := make([]pfd.Term, 0, len(side))
	for a, c := range side {
		out = append(out, pfd.Term{Attr: a, Cell: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}
