package pattern

// The reference matcher: the uncompiled dynamic program over rune
// positions that the compiled matchers (compile.go) are
// property-tested against in compile_test.go and quick_test.go.

// refMatch is the uncompiled NFA simulation by dynamic programming over
// rune positions: each token consumes a bounded or unbounded run of runes
// drawn from its label. It is retained as the executable specification the
// compiled matchers are property-tested against.
func (p *Pattern) refMatch(s string) bool {
	rs := []rune(s)
	cur := matchPositions(p.Tokens, rs, []int{0})
	for _, pos := range cur {
		if pos == len(rs) {
			return true
		}
	}
	return false
}

// matchPositions advances the set of reachable rune positions in rs through
// the token sequence, starting from the given sorted position set.
func matchPositions(tokens []Token, rs []rune, start []int) []int {
	cur := make([]bool, len(rs)+1)
	for _, p := range start {
		if p >= 0 && p <= len(rs) {
			cur[p] = true
		}
	}
	for _, t := range tokens {
		next := make([]bool, len(rs)+1)
		for pos := 0; pos <= len(rs); pos++ {
			if !cur[pos] {
				continue
			}
			// Consume k repetitions of t starting at pos.
			k, at := 0, pos
			for {
				if k >= t.Min && (t.Max == Unbounded || k <= t.Max) {
					next[at] = true
				}
				if t.Max != Unbounded && k == t.Max {
					break
				}
				if at >= len(rs) || !t.MatchRune(rs[at]) {
					break
				}
				at++
				k++
			}
		}
		cur = next
	}
	out := make([]int, 0, 4)
	for pos := 0; pos <= len(rs); pos++ {
		if cur[pos] {
			out = append(out, pos)
		}
	}
	return out
}

// refConstrainedSpan is the uncompiled reference implementation of
// ConstrainedSpan, retained for differential testing of the compiled path.
func (p *Pattern) refConstrainedSpan(s string) (string, bool) {
	rs := []rune(s)
	if !p.Constrained() {
		if p.refMatch(s) {
			return s, true
		}
		return "", false
	}
	pre := p.Tokens[:p.ConStart]
	mid := p.Tokens[p.ConStart:p.ConEnd]
	suf := p.Tokens[p.ConEnd:]

	starts := matchPositions(pre, rs, []int{0})
	if len(starts) == 0 {
		return "", false
	}
	// Positions from which the suffix can reach the end of s.
	sufOK := make([]bool, len(rs)+1)
	for _, q := range matchableEnds(suf, rs) {
		sufOK[q] = true
	}
	for _, lo := range starts { // leftmost start first
		mids := matchPositions(mid, rs[lo:], []int{0})
		// Greedy: largest end of the constrained region that leaves a
		// matchable suffix.
		for i := len(mids) - 1; i >= 0; i-- {
			hi := lo + mids[i]
			if sufOK[hi] {
				return string(rs[lo:hi]), true
			}
		}
	}
	return "", false
}

// matchableEnds returns every position q in rs such that tokens can match
// rs[q:] exactly to the end.
func matchableEnds(tokens []Token, rs []rune) []int {
	out := make([]int, 0, 4)
	for q := 0; q <= len(rs); q++ {
		ends := matchPositions(tokens, rs[q:], []int{0})
		for _, e := range ends {
			if q+e == len(rs) {
				out = append(out, q)
				break
			}
		}
	}
	return out
}
