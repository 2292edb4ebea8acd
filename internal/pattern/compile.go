package pattern

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// This file implements the compiled execution path for pattern matching.
// A Pattern is classified once into a shape and matched by a Matcher that
// holds no per-call state on the heap: the byte-level shapes (constant,
// fixed-width, anchored prefix) never allocate, and the general shape runs
// the NFA simulation on pooled scratch buffers with one forward pass per
// token segment and one reverse pass replacing the former per-position
// suffix re-simulation (O(n·tokens) instead of O(n²)).

// shape discriminates the compiled execution strategies.
type shape uint8

const (
	// shapeGeneral runs the scratch-buffer DP; it handles every pattern.
	shapeGeneral shape = iota
	// shapeConstant matches exactly one string.
	shapeConstant
	// shapeFixed has only fixed-width tokens: one left-to-right rune scan.
	shapeFixed
	// shapePrefix is [\A{k}] literal-run \A* — the shape discovery emits
	// for anchored prefixes and separator-terminated tokens.
	shapePrefix
	// shapeGreedy is a token sequence whose splits are forced: every
	// variable-length token is label-disjoint from whatever can consume
	// the next rune, so one greedy left-to-right pass finds the unique
	// match, e.g. (\LU\LL*\ )\A*.
	shapeGreedy
)

// fixedUnit is one rune slot of a fixed-width pattern.
type fixedUnit struct {
	class Class
	lit   rune
}

func (u fixedUnit) match(r rune) bool {
	if u.class == Literal {
		return u.lit == r
	}
	return u.class.Contains(r)
}

// A Matcher is the compiled form of a Pattern. It is safe for concurrent
// use: the byte-level shapes are stateless and the general shape draws its
// scratch from a pool.
type Matcher struct {
	shape       shape
	constrained bool

	// shapeConstant: the single matching string and its region text.
	constant string
	region   string

	// shapeFixed: one unit per rune, the fixed rune length, and the
	// region's rune offsets.
	units  []fixedUnit
	spanLo int
	spanHi int

	// shapePrefix: skip leading runes, then the literal run, then \A*.
	skip int
	lit  string

	// shapeGreedy: the full token sequence and the constrained region's
	// token bounds.
	greedy []Token
	loTok  int
	hiTok  int

	// shapeGeneral: the token sequence split at the constrained region.
	pre, mid, suf []Token
	// sufAllAny is true when the suffix is empty or a lone \A*, letting
	// the span search skip the reverse pass entirely.
	sufAllAny bool
	sufEmpty  bool
}

// Compile classifies p and returns its matcher. The result is immutable
// and may be shared across goroutines.
func Compile(p *Pattern) *Matcher {
	m := &Matcher{constrained: p.Constrained()}
	if c, ok := p.ConstantValue(); ok {
		m.shape = shapeConstant
		m.constant = c
		if m.constrained {
			m.region = constantText(p.Tokens[p.ConStart:p.ConEnd])
		}
		return m
	}
	if compilePrefix(p, m) {
		return m
	}
	if compileFixed(p, m) {
		return m
	}
	if compileGreedy(p, m) {
		return m
	}
	m.shape = shapeGeneral
	if m.constrained {
		m.pre = p.Tokens[:p.ConStart]
		m.mid = p.Tokens[p.ConStart:p.ConEnd]
		m.suf = p.Tokens[p.ConEnd:]
	} else {
		m.mid = p.Tokens
	}
	m.sufEmpty = len(m.suf) == 0
	m.sufAllAny = m.sufEmpty ||
		(len(m.suf) == 1 && m.suf[0].Class == Any && m.suf[0].Min == 0 && m.suf[0].Max == Unbounded)
	return m
}

// constantText renders the string spelled by a run of constant tokens.
func constantText(toks []Token) string {
	var b strings.Builder
	for _, t := range toks {
		for i := 0; i < t.Min; i++ {
			b.WriteRune(t.Lit)
		}
	}
	return b.String()
}

// compileFixed recognizes patterns whose every token consumes a fixed
// number of runes, e.g. (\D{3})\D{2}. Matching is a single rune scan.
func compileFixed(p *Pattern, m *Matcher) bool {
	n := 0
	for _, t := range p.Tokens {
		if !t.Fixed() {
			return false
		}
		n += t.Min
	}
	units := make([]fixedUnit, 0, n)
	lo, hi := -1, -1
	for i, t := range p.Tokens {
		if i == p.ConStart {
			lo = len(units)
		}
		if i == p.ConEnd {
			hi = len(units)
		}
		for k := 0; k < t.Min; k++ {
			units = append(units, fixedUnit{class: t.Class, lit: t.Lit})
		}
	}
	if p.ConStart == len(p.Tokens) {
		lo = len(units)
	}
	if p.ConEnd == len(p.Tokens) {
		hi = len(units)
	}
	m.shape = shapeFixed
	m.units = units
	m.spanLo, m.spanHi = lo, hi
	return true
}

// compilePrefix recognizes [\A{k}] L1..Ln \A* where the Li are literal
// constants and the constrained region (when present) is exactly the
// literal run — the cells discovery builds for anchored prefixes, e.g.
// \A{2}(90210)\A* or (John\ )\A*.
func compilePrefix(p *Pattern, m *Matcher) bool {
	toks := p.Tokens
	if len(toks) < 2 {
		return false
	}
	last := toks[len(toks)-1]
	if last.Class != Any || last.Min != 0 || last.Max != Unbounded {
		return false
	}
	toks = toks[:len(toks)-1]
	skip := 0
	if len(toks) > 0 && toks[0].Class == Any && toks[0].Fixed() && toks[0].Min > 0 {
		skip = toks[0].Min
		toks = toks[1:]
	}
	litStart := 0
	if skip > 0 {
		litStart = 1
	}
	if len(toks) == 0 {
		return false
	}
	var b strings.Builder
	for _, t := range toks {
		if !t.Constant() {
			return false
		}
		for i := 0; i < t.Min; i++ {
			b.WriteRune(t.Lit)
		}
	}
	if p.Constrained() && (p.ConStart != litStart || p.ConEnd != len(p.Tokens)-1) {
		return false
	}
	m.shape = shapePrefix
	m.skip = skip
	m.lit = b.String()
	return true
}

// compileGreedy recognizes token sequences with forced splits: for every
// variable-length token t, each token that could consume the rune after
// t's run — the following zero-minimum tokens and the first token with
// Min >= 1 — has a label disjoint from t's. Stopping t early then strands
// a rune no successor can take, so the maximal (greedy) consumption is the
// only viable one and matching is a single deterministic pass.
func compileGreedy(p *Pattern, m *Matcher) bool {
	toks := p.Tokens
	if len(toks) == 0 {
		return false
	}
	for i, t := range toks {
		if t.Fixed() {
			continue
		}
		for k := i + 1; k < len(toks); k++ {
			if !labelsDisjoint(t, toks[k]) {
				return false
			}
			if toks[k].Min >= 1 {
				break
			}
		}
	}
	m.shape = shapeGreedy
	m.greedy = toks
	m.loTok, m.hiTok = p.ConStart, p.ConEnd
	return true
}

// labelsDisjoint reports whether no rune is generated by both tokens.
func labelsDisjoint(a, b Token) bool {
	if a.Class == Any || b.Class == Any {
		return false
	}
	if a.Class == Literal && b.Class == Literal {
		return a.Lit != b.Lit
	}
	if a.Class == Literal {
		return !b.Class.Contains(a.Lit)
	}
	if b.Class == Literal {
		return !a.Class.Contains(b.Lit)
	}
	return a.Class != b.Class
}

// Match reports whether s is generated by the compiled pattern; it is
// equivalent to the uncompiled DP and allocation-free in steady state.
func (m *Matcher) Match(s string) bool {
	switch m.shape {
	case shapeConstant:
		return s == m.constant
	case shapeFixed:
		_, _, ok := m.fixedScan(s)
		return ok
	case shapePrefix:
		_, ok := m.prefixRest(s)
		return ok
	case shapeGreedy:
		_, _, ok := m.greedyScan(s)
		return ok
	default:
		sc := getScratch()
		ok := m.matchGeneral(sc, s)
		putScratch(sc)
		return ok
	}
}

// ConstrainedSpan returns the portion of s matching the constrained
// region under the same leftmost-greedy disambiguation as the uncompiled
// path. The returned string shares s's backing storage.
func (m *Matcher) ConstrainedSpan(s string) (string, bool) {
	if !m.constrained {
		if m.Match(s) {
			return s, true
		}
		return "", false
	}
	switch m.shape {
	case shapeConstant:
		if s == m.constant {
			return m.region, true
		}
		return "", false
	case shapeFixed:
		b0, b1, ok := m.fixedScan(s)
		if !ok {
			return "", false
		}
		return s[b0:b1], true
	case shapePrefix:
		if _, ok := m.prefixRest(s); ok {
			return m.lit, true
		}
		return "", false
	case shapeGreedy:
		b0, b1, ok := m.greedyScan(s)
		if !ok {
			return "", false
		}
		return s[b0:b1], true
	default:
		sc := getScratch()
		span, ok := m.spanGeneral(sc, s)
		putScratch(sc)
		return span, ok
	}
}

// Anchor states a literal every matching string carries: after skip
// runes the string continues with the bytes of lit, and when exact is
// set the string equals lit. ok is false when the shape pins no literal
// (or only the empty one at a variable position). Callers may use it as
// a sound pre-filter; Match remains the verdict.
func (m *Matcher) Anchor() (skip int, lit string, exact, ok bool) {
	switch m.shape {
	case shapeConstant:
		return 0, m.constant, true, true
	case shapePrefix:
		return m.skip, m.lit, false, m.lit != ""
	}
	return 0, "", false, false
}

// Equivalent implements s ≡Q s' on the compiled matcher.
func (m *Matcher) Equivalent(s1, s2 string) bool {
	a, ok := m.ConstrainedSpan(s1)
	if !ok {
		return false
	}
	b, ok := m.ConstrainedSpan(s2)
	return ok && a == b
}

// fixedScan walks s checking each rune against its unit, returning the
// byte offsets of the constrained region.
func (m *Matcher) fixedScan(s string) (b0, b1 int, ok bool) {
	i := 0
	b1 = len(s)
	for off, r := range s {
		if i >= len(m.units) || !m.units[i].match(r) {
			return 0, 0, false
		}
		if i == m.spanLo {
			b0 = off
		}
		if i == m.spanHi {
			b1 = off
		}
		i++
	}
	if i != len(m.units) {
		return 0, 0, false
	}
	if m.spanLo >= i {
		b0 = len(s)
	}
	if m.spanHi < m.spanLo {
		b1 = b0
	}
	return b0, b1, true
}

// prefixRest skips m.skip leading runes and requires m.lit to follow,
// returning the remainder after the literal run.
func (m *Matcher) prefixRest(s string) (string, bool) {
	s, ok := skipRunes(s, m.skip)
	if !ok || !strings.HasPrefix(s, m.lit) {
		return "", false
	}
	return s[len(m.lit):], true
}

// greedyScan runs the deterministic pass over s, returning the byte
// offsets of the constrained region. The split being forced (see
// compileGreedy), these offsets equal the reference's leftmost-greedy
// disambiguation.
func (m *Matcher) greedyScan(s string) (b0, b1 int, ok bool) {
	pos := 0
	for ti, t := range m.greedy {
		if ti == m.loTok {
			b0 = pos
		}
		k := 0
		for t.Max == Unbounded || k < t.Max {
			if pos >= len(s) {
				break
			}
			r, w := utf8.DecodeRuneInString(s[pos:])
			if !t.MatchRune(r) {
				break
			}
			pos += w
			k++
		}
		if k < t.Min {
			return 0, 0, false
		}
		if ti == m.hiTok-1 {
			b1 = pos
		}
	}
	if pos != len(s) {
		return 0, 0, false
	}
	if m.loTok >= len(m.greedy) {
		b0 = pos
	}
	if m.hiTok <= m.loTok {
		b1 = b0
	}
	return b0, b1, true
}

// scratch holds the general shape's per-call buffers. All slices are
// length-managed by the passes below and retain capacity across calls.
type scratch struct {
	runes   []rune
	byteOff []int32
	run     []int32
	diff    []int32
	cnt     []int32
	cur     []bool
	nxt     []bool
	sufOK   []bool
	sufNxt  []bool
	midCur  []bool
	midNxt  []bool
	starts  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// decode fills the rune and byte-offset buffers for s.
func (sc *scratch) decode(s string) {
	sc.runes = sc.runes[:0]
	sc.byteOff = sc.byteOff[:0]
	for off, r := range s {
		sc.runes = append(sc.runes, r)
		sc.byteOff = append(sc.byteOff, int32(off))
	}
	sc.byteOff = append(sc.byteOff, int32(len(s)))
}

// boolBuf returns buf resized to n, cleared.
func boolBuf(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = false
		}
	}
	return buf
}

func i32Buf(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
	}
	return buf
}

// computeRun fills run[i] with the length of the longest run of runes
// starting at i that token t can consume (run has len(rs)+1 slots).
func computeRun(t Token, rs []rune, run []int32) {
	run[len(rs)] = 0
	for i := len(rs) - 1; i >= 0; i-- {
		if t.MatchRune(rs[i]) {
			run[i] = run[i+1] + 1
		} else {
			run[i] = 0
		}
	}
}

// forward advances the reachable-position set cur through tokens over rs.
// Each token is one range-marking pass: a reachable position p extends to
// every q in [p+Min, p+min(Max, run(p))], accumulated with a difference
// array and a prefix sum — O(len(rs)) per token. It returns false when no
// position remains reachable.
func (m *Matcher) forward(sc *scratch, tokens []Token, rs []rune, cur, nxt *[]bool) bool {
	n := len(rs)
	sc.run = i32Buf(sc.run, n+1)
	sc.diff = i32Buf(sc.diff, n+2)
	for _, t := range tokens {
		computeRun(t, rs, sc.run)
		diff := sc.diff
		for i := range diff {
			diff[i] = 0
		}
		any := false
		for p := 0; p <= n; p++ {
			if !(*cur)[p] {
				continue
			}
			maxK := int(sc.run[p])
			if t.Max != Unbounded && t.Max < maxK {
				maxK = t.Max
			}
			if maxK < t.Min {
				continue
			}
			diff[p+t.Min]++
			diff[p+maxK+1]--
			any = true
		}
		if !any {
			return false
		}
		acc := int32(0)
		for q := 0; q <= n; q++ {
			acc += diff[q]
			(*nxt)[q] = acc > 0
		}
		*cur, *nxt = *nxt, *cur
	}
	return true
}

// matchGeneral runs the full token sequence and checks whether the end of
// s is reachable.
func (m *Matcher) matchGeneral(sc *scratch, s string) bool {
	sc.decode(s)
	rs := sc.runes
	n := len(rs)
	sc.cur = boolBuf(sc.cur, n+1)
	sc.nxt = boolBuf(sc.nxt, n+1)
	sc.cur[0] = true
	if !m.forward(sc, m.pre, rs, &sc.cur, &sc.nxt) {
		return false
	}
	if !m.forward(sc, m.mid, rs, &sc.cur, &sc.nxt) {
		return false
	}
	if !m.forward(sc, m.suf, rs, &sc.cur, &sc.nxt) {
		return false
	}
	return sc.cur[n]
}

// reverseSuffix fills sufOK[q] with whether the suffix tokens can match
// rs[q:] exactly to the end. One pass per token, right to left, using a
// suffix count of the previous frontier to answer "is any position in
// [q+Min, q+min(Max,run(q))] matchable" in O(1).
func (m *Matcher) reverseSuffix(sc *scratch, rs []rune) {
	n := len(rs)
	sc.sufOK = boolBuf(sc.sufOK, n+1)
	sc.sufNxt = boolBuf(sc.sufNxt, n+1)
	sc.run = i32Buf(sc.run, n+1)
	sc.cnt = i32Buf(sc.cnt, n+2)
	sc.sufOK[n] = true
	for j := len(m.suf) - 1; j >= 0; j-- {
		t := m.suf[j]
		computeRun(t, rs, sc.run)
		cnt := sc.cnt
		cnt[n+1] = 0
		for q := n; q >= 0; q-- {
			c := cnt[q+1]
			if sc.sufOK[q] {
				c++
			}
			cnt[q] = c
		}
		for p := 0; p <= n; p++ {
			maxK := int(sc.run[p])
			if t.Max != Unbounded && t.Max < maxK {
				maxK = t.Max
			}
			if maxK < t.Min {
				sc.sufNxt[p] = false
				continue
			}
			sc.sufNxt[p] = cnt[p+t.Min]-cnt[p+maxK+1] > 0
		}
		sc.sufOK, sc.sufNxt = sc.sufNxt, sc.sufOK
	}
}

// spanGeneral extracts the constrained span with the same leftmost-greedy
// rule as the uncompiled path: smallest region start whose greedily largest
// region end leaves a matchable suffix.
func (m *Matcher) spanGeneral(sc *scratch, s string) (string, bool) {
	sc.decode(s)
	rs := sc.runes
	n := len(rs)
	sc.cur = boolBuf(sc.cur, n+1)
	sc.nxt = boolBuf(sc.nxt, n+1)
	sc.cur[0] = true
	if !m.forward(sc, m.pre, rs, &sc.cur, &sc.nxt) {
		return "", false
	}
	// Record the candidate starts before reusing buffers.
	sc.starts = sc.starts[:0]
	for p := 0; p <= n; p++ {
		if sc.cur[p] {
			sc.starts = append(sc.starts, int32(p))
		}
	}
	if len(sc.starts) == 0 {
		return "", false
	}
	if m.sufAllAny {
		// sufOK is all-true (lone \A*) or end-only (empty suffix); handled
		// inline below without the reverse pass.
		sc.sufOK = boolBuf(sc.sufOK, n+1)
		if m.sufEmpty {
			sc.sufOK[n] = true
		} else {
			for q := 0; q <= n; q++ {
				sc.sufOK[q] = true
			}
		}
	} else {
		m.reverseSuffix(sc, rs)
	}
	for _, lo32 := range sc.starts {
		lo := int(lo32)
		sub := rs[lo:]
		sc.midCur = boolBuf(sc.midCur, len(sub)+1)
		sc.midNxt = boolBuf(sc.midNxt, len(sub)+1)
		sc.midCur[0] = true
		if !m.forward(sc, m.mid, sub, &sc.midCur, &sc.midNxt) {
			continue
		}
		for q := len(sub); q >= 0; q-- {
			if sc.midCur[q] && sc.sufOK[lo+q] {
				return s[sc.byteOff[lo]:sc.byteOff[lo+q]], true
			}
		}
	}
	return "", false
}
