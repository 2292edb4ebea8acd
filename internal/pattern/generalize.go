package pattern

// This file lifts concrete strings to patterns — the heart of the paper's
// generalize() step (Section 4.3, Example 8), which replaces a set of
// constant PFD tableau rows such as {Tayseer, Noor, Esmat} by one variable
// pattern \LU\LL+ that all of them instantiate.

// run is a maximal homogeneous-class substring of a string. Symbol runs
// additionally remember their rune when it is uniform: special characters
// such as '-' and ' ' are the tokenization signals of Section 4.2 and are
// preserved as literals rather than abstracted to \S.
type run struct {
	class   Class
	n       int
	lit     rune // the uniform rune of a Symbol run
	uniform bool // lit is valid
}

// runsOf splits s into maximal runs of a single character class.
func runsOf(s string) []run {
	var out []run
	for _, r := range s {
		c := ClassOf(r)
		if n := len(out); n > 0 && out[n-1].class == c {
			out[n-1].n++
			if out[n-1].lit != r {
				out[n-1].uniform = false
			}
		} else {
			out = append(out, run{class: c, n: 1, lit: r, uniform: c == Symbol})
		}
	}
	return out
}

// token converts one aggregated run to a pattern token.
func (r run) token(min, max int) Token {
	if r.class == Symbol && r.uniform {
		return Token{Class: Literal, Lit: r.lit, Min: min, Max: max}
	}
	return Token{Class: r.class, Min: min, Max: max}
}

// GeneralizeString returns the most specific non-literal pattern matching
// s: each class run becomes Class{N}, except uniform symbol runs which stay
// literal.
func GeneralizeString(s string) *Pattern {
	rr := runsOf(s)
	toks := make([]Token, len(rr))
	for i, r := range rr {
		toks[i] = r.token(r.n, r.n)
	}
	return New(toks...)
}

// GeneralizeStrings returns the most specific pattern in the restricted
// language that matches every input string, or nil when the inputs have no
// common run structure (different numbers of class runs after merging).
//
// The unification rules per aligned run position:
//   - same class, same length  -> Class{N}
//   - same class, lengths vary -> Class+ (or Class* when some length is 0)
//   - classes differ           -> their LUB in the generalization tree
//
// Strings whose run sequences have different lengths fail structural
// alignment and the function falls back to nil; callers treat that as
// "not generalizable" exactly as the paper's generalize() does.
func GeneralizeStrings(ss []string) *Pattern {
	if len(ss) == 0 {
		return nil
	}
	base := runsOf(ss[0])
	acc := make([]run, len(base))
	copy(acc, base)
	minLen := make([]int, len(base))
	maxLen := make([]int, len(base))
	for i, r := range base {
		minLen[i], maxLen[i] = r.n, r.n
	}
	for _, s := range ss[1:] {
		rr := runsOf(s)
		if len(rr) != len(acc) {
			return nil
		}
		for i, r := range rr {
			if acc[i].class != r.class {
				acc[i].class = LUB(acc[i].class, r.class)
				acc[i].uniform = false
			} else if acc[i].uniform && (!r.uniform || acc[i].lit != r.lit) {
				acc[i].uniform = false
			}
			if r.n < minLen[i] {
				minLen[i] = r.n
			}
			if r.n > maxLen[i] {
				maxLen[i] = r.n
			}
		}
	}
	toks := make([]Token, len(acc))
	for i, a := range acc {
		switch {
		case minLen[i] == maxLen[i]:
			toks[i] = a.token(minLen[i], minLen[i])
		case minLen[i] == 0:
			toks[i] = a.token(0, Unbounded)
		default:
			toks[i] = a.token(1, Unbounded)
		}
	}
	// Merge adjacent runs that unified to the same class with open bounds;
	// \LL+\LL{2} style artefacts cannot arise from run alignment (adjacent
	// runs of one string always differ in class), but LUB lifting can
	// create them across strings.
	merged := toks[:0]
	for _, t := range toks {
		if n := len(merged); n > 0 && merged[n-1].Class == t.Class && t.Class != Literal &&
			(merged[n-1].Max == Unbounded || t.Max == Unbounded) {
			m := &merged[n-1]
			m.Min += t.Min
			m.Max = Unbounded
			continue
		}
		merged = append(merged, t)
	}
	return New(merged...)
}

// GeneralizeFirstToken builds the variable pattern used for first-token
// dependencies such as full names: the shared shape of the given token
// strings, constrained, followed by \A* — e.g. (\LU\LL+\ )\A*.
// sep is the rune separating the token from the remainder (0 for none).
// It returns nil when the tokens do not share a run structure.
func GeneralizeFirstToken(tokens []string, sep rune) *Pattern {
	g := GeneralizeStrings(tokens)
	if g == nil {
		return nil
	}
	toks := g.Tokens
	if sep != 0 {
		toks = append(toks, Lit(sep))
	}
	n := len(toks)
	toks = append(toks, Star(Any))
	return NewConstrained(toks, 0, n)
}
