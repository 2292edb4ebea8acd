package pattern

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomString draws a printable ASCII string (possibly empty).
func randomString(r *rand.Rand, maxLen int) string {
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 -_./"
	n := r.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alpha[r.Intn(len(alpha))])
	}
	return b.String()
}

// randomPattern draws a small random pattern from the restricted language.
func randomPattern(r *rand.Rand) *Pattern {
	n := 1 + r.Intn(4)
	toks := make([]Token, n)
	for i := range toks {
		classes := []Class{Upper, Lower, Digit, Symbol, Any, Literal}
		c := classes[r.Intn(len(classes))]
		t := Token{Class: c}
		if c == Literal {
			t.Lit = rune("Aa0-xZ9 "[r.Intn(8)])
		}
		switch r.Intn(4) {
		case 0:
			t.Min, t.Max = 1, 1
		case 1:
			t.Min, t.Max = 1+r.Intn(3), 0
			t.Max = t.Min
		case 2:
			t.Min, t.Max = 1, Unbounded
		default:
			t.Min, t.Max = 0, Unbounded
		}
		toks[i] = t
	}
	p := New(toks...)
	if r.Intn(2) == 0 {
		lo := r.Intn(n)
		hi := lo + 1 + r.Intn(n-lo)
		p = NewConstrained(toks, lo, hi)
	}
	return p
}

// sample instantiates one concrete string generated by p.
func sample(r *rand.Rand, p *Pattern) string {
	pick := func(t Token) byte {
		switch t.Class {
		case Literal:
			return byte(t.Lit)
		case Upper:
			return byte('A' + r.Intn(26))
		case Lower:
			return byte('a' + r.Intn(26))
		case Digit:
			return byte('0' + r.Intn(10))
		case Symbol:
			return "-_ ./"[r.Intn(5)]
		default:
			return "Xy7-"[r.Intn(4)]
		}
	}
	var b strings.Builder
	for _, t := range p.Tokens {
		reps := t.Min
		if t.Max == Unbounded {
			reps += r.Intn(3)
		}
		for i := 0; i < reps; i++ {
			b.WriteByte(pick(t))
		}
	}
	return b.String()
}

func TestQuickGeneralizeStringMatches(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		s := randomString(r, 20)
		return GeneralizeString(s).Match(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickGeneralizeStringsMatchesAll(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		ss := make([]string, 1+r.Intn(4))
		for i := range ss {
			ss[i] = randomString(r, 12)
		}
		g := GeneralizeStrings(ss)
		if g == nil {
			return true // structurally misaligned inputs are allowed to fail
		}
		for _, s := range ss {
			if !g.Match(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		p := randomPattern(r)
		back, err := Parse(p.String())
		return err == nil && p.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSampleMatches(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		p := randomPattern(r)
		return p.Match(sample(r, p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickLangContainsReflexiveAndSampleSound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		p, q := randomPattern(r), randomPattern(r)
		if !LangContains(p, p) {
			return false
		}
		// Soundness: if L(q) contains L(p), every sample of p matches q.
		if LangContains(q, p) {
			for i := 0; i < 5; i++ {
				if !q.Match(sample(r, p)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickEquivalenceIsEquivalenceRelation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func() bool {
		p := randomPattern(r)
		a, b, c := sample(r, p), sample(r, p), sample(r, p)
		// Reflexivity on matching strings.
		if !p.Equivalent(a, a) {
			return false
		}
		// Symmetry.
		if p.Equivalent(a, b) != p.Equivalent(b, a) {
			return false
		}
		// Transitivity.
		if p.Equivalent(a, b) && p.Equivalent(b, c) && !p.Equivalent(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickRestrictsSoundOnSamples(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		p, q := randomPattern(r), randomPattern(r)
		if !Restricts(p, q) {
			return true // incomplete by design; only soundness is claimed
		}
		// Soundness: equal p-spans must force equal q-spans.
		for i := 0; i < 8; i++ {
			a, b := sample(r, p), sample(r, p)
			if p.Equivalent(a, b) && !q.Equivalent(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// anchorProbe draws a pattern that often has an anchor: a random
// pattern, a constant, or the prefix shape [\A{k}] literal-run \A*,
// with or without a constrained region.
func anchorProbe(r *rand.Rand) *Pattern {
	switch r.Intn(3) {
	case 0:
		return randomPattern(r)
	case 1:
		return Constant(randomString(r, 4))
	}
	var toks []Token
	if r.Intn(2) == 0 {
		toks = append(toks, Exactly(Any, 1+r.Intn(3)))
	}
	lo := len(toks)
	for k := r.Intn(3); k >= 0; k-- {
		toks = append(toks, Exactly(Literal, 1+r.Intn(2)))
		toks[len(toks)-1].Lit = []rune("aZ9 é")[r.Intn(5)]
	}
	hi := len(toks)
	toks = append(toks, Star(Any))
	if r.Intn(2) == 0 {
		return New(toks...)
	}
	return NewConstrained(toks, lo, hi)
}

// anchorString draws a string for p: a sample of p, a random string, or
// a sample with one rune replaced by a multi-byte rune.
func anchorString(r *rand.Rand, p *Pattern) string {
	switch r.Intn(3) {
	case 0:
		return randomString(r, 8)
	case 1:
		rs := []rune(sample(r, p))
		if len(rs) > 0 {
			rs[r.Intn(len(rs))] = []rune("éü€")[r.Intn(3)]
		}
		return string(rs)
	}
	return sample(r, p)
}

// TestQuickAnchorSound pins the stream engine's dispatch index to the
// reference DP: whenever refMatch accepts s and the compiled matcher
// states an anchor, s carries the literal at rune offset skip (and is
// the literal when exact).
func TestQuickAnchorSound(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	anchored := 0
	f := func() bool {
		p := anchorProbe(r)
		skip, lit, exact, ok := p.Compiled().Anchor()
		if !ok {
			return true
		}
		for i := 0; i < 8; i++ {
			s := anchorString(r, p)
			if !p.refMatch(s) {
				continue
			}
			anchored++
			rs, lr := []rune(s), []rune(lit)
			if len(rs) < skip+len(lr) || string(rs[skip:skip+len(lr)]) != lit {
				return false
			}
			if exact && s != lit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if anchored < 1000 {
		t.Fatalf("only %d anchored matches checked; generators too weak", anchored)
	}
}
