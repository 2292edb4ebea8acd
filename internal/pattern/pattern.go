package pattern

import (
	"strings"
	"sync/atomic"
)

// A Pattern is a sequence of tokens with at most one constrained region
// (the paper's underlined sub-pattern Q inside P). The constrained region
// is the half-open token range [ConStart, ConEnd); ConStart == -1 means the
// pattern has no constrained region. The paper restricts patterns to a
// single constrained part (Section 2.1) and so do we.
//
// Patterns are immutable after construction; Match and ConstrainedSpan
// compile the token sequence once (see compile.go) and cache the matcher.
type Pattern struct {
	Tokens   []Token
	ConStart int // first token of the constrained region, or -1
	ConEnd   int // one past the last constrained token

	compiled atomic.Pointer[Matcher]
}

// New builds an unconstrained pattern from tokens.
func New(tokens ...Token) *Pattern {
	return &Pattern{Tokens: tokens, ConStart: -1, ConEnd: -1}
}

// NewConstrained builds a pattern whose tokens [lo, hi) form the
// constrained region.
func NewConstrained(tokens []Token, lo, hi int) *Pattern {
	if lo < 0 || hi > len(tokens) || lo > hi {
		panic("pattern: constrained region out of range")
	}
	return &Pattern{Tokens: tokens, ConStart: lo, ConEnd: hi}
}

// Constant builds a fully-constrained literal pattern matching exactly s.
// It is the degenerate case of Section 2.1 where the constrained part is a
// constant and two strings are equivalent iff they are identical.
func Constant(s string) *Pattern {
	rs := []rune(s)
	toks := make([]Token, len(rs))
	for i, r := range rs {
		toks[i] = Lit(r)
	}
	return &Pattern{Tokens: toks, ConStart: 0, ConEnd: len(toks)}
}

// ConstantPrefix builds a pattern matching prefix followed by anything
// (\A*), with the prefix constrained — the shape of tableau entries such
// as "John\ \A*" in the paper's Figure 2.
func ConstantPrefix(prefix string) *Pattern {
	rs := []rune(prefix)
	toks := make([]Token, 0, len(rs)+1)
	for _, r := range rs {
		toks = append(toks, Lit(r))
	}
	n := len(toks)
	toks = append(toks, Star(Any))
	return &Pattern{Tokens: toks, ConStart: 0, ConEnd: n}
}

// Constrained reports whether the pattern has a constrained region.
func (p *Pattern) Constrained() bool { return p.ConStart >= 0 }

// FullyConstrained reports whether the constrained region spans the whole
// pattern, in which case equivalence degenerates to string equality.
func (p *Pattern) FullyConstrained() bool {
	return p.ConStart == 0 && p.ConEnd == len(p.Tokens)
}

// IsConstant reports whether the pattern matches exactly one string.
func (p *Pattern) IsConstant() bool {
	for _, t := range p.Tokens {
		if !t.Constant() {
			return false
		}
	}
	return true
}

// ConstantValue returns the single string the pattern matches, if
// IsConstant.
func (p *Pattern) ConstantValue() (string, bool) {
	if !p.IsConstant() {
		return "", false
	}
	var b strings.Builder
	for _, t := range p.Tokens {
		for i := 0; i < t.Min; i++ {
			b.WriteRune(t.Lit)
		}
	}
	return b.String(), true
}

// ConstrainedConstant reports whether the constrained region matches
// exactly one string and returns it. PFDs whose tableau cells are
// constrained constants apply to single tuples (Section 2.2).
func (p *Pattern) ConstrainedConstant() (string, bool) {
	if !p.Constrained() {
		return "", false
	}
	var b strings.Builder
	for _, t := range p.Tokens[p.ConStart:p.ConEnd] {
		if !t.Constant() {
			return "", false
		}
		for i := 0; i < t.Min; i++ {
			b.WriteRune(t.Lit)
		}
	}
	return b.String(), true
}

// MinLen returns the minimum number of runes any match consumes.
func (p *Pattern) MinLen() int {
	n := 0
	for _, t := range p.Tokens {
		n += t.Min
	}
	return n
}

// MaxLen returns the maximum number of runes a match may consume, or
// Unbounded if any token is unbounded.
func (p *Pattern) MaxLen() int {
	n := 0
	for _, t := range p.Tokens {
		if t.Max == Unbounded {
			return Unbounded
		}
		n += t.Max
	}
	return n
}

// Match reports whether s is generated by the pattern (s |-> P in the
// paper's notation). It dispatches to the compiled matcher; the reference
// DP it is tested against lives in reference_test.go.
func (p *Pattern) Match(s string) bool {
	return p.Compiled().Match(s)
}

// Compiled returns the pattern's compiled matcher, building and caching it
// on first use. Concurrent callers may race to compile; the result is
// deterministic so the first stored matcher wins harmlessly.
func (p *Pattern) Compiled() *Matcher {
	if m := p.compiled.Load(); m != nil {
		return m
	}
	m := Compile(p)
	if !p.compiled.CompareAndSwap(nil, m) {
		return p.compiled.Load()
	}
	return m
}

// ConstrainedSpan returns the portion s(Q) of s that matches the
// constrained region, using leftmost-greedy disambiguation: the prefix
// before the region consumes as few runes as possible and the region then
// consumes as many as possible while the suffix still matches. The second
// result is false when s does not match the pattern at all. For patterns
// without a constrained region it returns the whole string (wildcard
// equivalence is full equality).
func (p *Pattern) ConstrainedSpan(s string) (string, bool) {
	return p.Compiled().ConstrainedSpan(s)
}

// Equivalent implements s ≡Q s' (Section 2.1): both strings match the
// pattern and their constrained spans are identical.
func (p *Pattern) Equivalent(s1, s2 string) bool {
	return p.Compiled().Equivalent(s1, s2)
}

// Clone returns a deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	toks := make([]Token, len(p.Tokens))
	copy(toks, p.Tokens)
	return &Pattern{Tokens: toks, ConStart: p.ConStart, ConEnd: p.ConEnd}
}

// String renders the pattern in the textual syntax accepted by Parse:
// classes as \A \LU \LL \D \S, quantifiers as {N} + *, the constrained
// region wrapped in parentheses, and meta-characters backslash-escaped.
func (p *Pattern) String() string {
	var b strings.Builder
	p.Render(&b)
	return b.String()
}

// Render writes String's rendering into b, so a caller composing a
// larger rendering (a tableau cell, a λ-notation rule) builds it in one
// buffer.
func (p *Pattern) Render(b *strings.Builder) {
	for i, t := range p.Tokens {
		if i == p.ConStart {
			b.WriteByte('(')
		}
		t.render(b)
		if i+1 == p.ConEnd {
			b.WriteByte(')')
		}
	}
}

// Equal reports structural equality of two patterns (same tokens and same
// constrained region).
func (p *Pattern) Equal(q *Pattern) bool {
	if len(p.Tokens) != len(q.Tokens) || p.ConStart != q.ConStart || p.ConEnd != q.ConEnd {
		return false
	}
	for i := range p.Tokens {
		if p.Tokens[i] != q.Tokens[i] {
			return false
		}
	}
	return true
}
