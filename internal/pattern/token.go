package pattern

import (
	"strconv"
	"strings"
)

// Unbounded is the Max value of a token whose quantifier is + or *.
const Unbounded = -1

// A Token is one quantified unit of a pattern: a character class or a
// literal rune, repeated between Min and Max times (Max == Unbounded for
// + and *). Each repetition consumes exactly one rune, so a token with
// Min=m, Max=M matches any run of m..M runes drawn from its label.
type Token struct {
	Class Class // Literal, Upper, Lower, Digit, Symbol or Any
	Lit   rune  // the rune when Class == Literal
	Min   int   // minimum repetitions (>= 0)
	Max   int   // maximum repetitions, or Unbounded
}

// One returns a token matching exactly one occurrence of class c.
func One(c Class) Token { return Token{Class: c, Min: 1, Max: 1} }

// Lit returns a token matching exactly the rune r once.
func Lit(r rune) Token { return Token{Class: Literal, Lit: r, Min: 1, Max: 1} }

// Exactly returns a token matching class c repeated exactly n times.
func Exactly(c Class, n int) Token { return Token{Class: c, Min: n, Max: n} }

// Plus returns a token matching one or more runes of class c.
func Plus(c Class) Token { return Token{Class: c, Min: 1, Max: Unbounded} }

// Star returns a token matching zero or more runes of class c.
func Star(c Class) Token { return Token{Class: c, Min: 0, Max: Unbounded} }

// MatchRune reports whether a single repetition of the token can consume r.
func (t Token) MatchRune(r rune) bool {
	if t.Class == Literal {
		return t.Lit == r
	}
	return t.Class.Contains(r)
}

// Fixed reports whether the token always consumes the same number of runes.
func (t Token) Fixed() bool { return t.Max == t.Min }

// Constant reports whether the token matches exactly one string (a literal
// repeated a fixed number of times).
func (t Token) Constant() bool { return t.Class == Literal && t.Fixed() }

// LabelSubsumes reports whether the label (class/literal) of t generates a
// superset of the runes generated by the label of u.
func (t Token) LabelSubsumes(u Token) bool {
	if t.Class == Literal {
		return u.Class == Literal && t.Lit == u.Lit
	}
	if u.Class == Literal {
		return t.Class.Contains(u.Lit)
	}
	return t.Class.Subsumes(u.Class)
}

// String renders the token in the paper's syntax, escaping runes that are
// meta-characters of the textual pattern language.
func (t Token) String() string {
	var b strings.Builder
	t.render(&b)
	return b.String()
}

// render writes the token's rendering into b.
func (t Token) render(b *strings.Builder) {
	if t.Class == Literal {
		writeLit(b, t.Lit)
	} else {
		b.WriteString(t.Class.String())
	}
	switch {
	case t.Min == 1 && t.Max == 1:
	case t.Min == 0 && t.Max == Unbounded:
		b.WriteByte('*')
	case t.Min == 1 && t.Max == Unbounded:
		b.WriteByte('+')
	default:
		b.WriteByte('{')
		b.WriteString(strconv.Itoa(t.Min))
		if !t.Fixed() {
			b.WriteByte(',')
			if t.Max != Unbounded {
				b.WriteString(strconv.Itoa(t.Max))
			}
		}
		b.WriteByte('}')
	}
}

// writeLit renders a literal rune, backslash-escaping the language's
// meta-characters so that String() round-trips through Parse. Beyond
// the pattern meta-runes it also escapes the tableau-grammar
// delimiters (',', ';', '[', ']') so a rendered cell can be embedded
// in a λ-notation rule line and split back apart unambiguously
// (pfd.ParsePFD, inference.ParseRule).
func writeLit(b *strings.Builder, r rune) {
	switch r {
	case '\\', '(', ')', '{', '}', '+', '*', ' ', '_', ',', ';', '[', ']':
		b.WriteByte('\\')
	}
	b.WriteRune(r)
}
