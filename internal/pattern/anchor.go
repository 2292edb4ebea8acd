package pattern

import (
	"slices"
	"unicode/utf8"
)

// AnchorIndex files ids under the literal their matcher anchors
// (Matcher.Anchor), so a value costs one map lookup per anchor shape
// instead of one match per id. Literals of one shape — the runes
// skipped before the literal, its byte length, and whether it is the
// whole value — share a group. The index is only a sound filter: an
// id Lookup returns may still fail to match, and every id it omits
// could not have matched. The stream engine's tableau dispatch and the
// batch planner's column bind both use it.
//
// The zero value is an empty index. Add and Lookup must not run
// concurrently; once built, any number of Lookups may.
type AnchorIndex struct {
	// groups ascend by skip, so consecutive groups share the rune skip
	// over one value.
	groups []anchorGroup
}

// anchorGroup maps each literal of one shape to the ids filed under
// it, in Add order. first has bit b set when some literal starts with
// byte b, so most values that carry none of the literals are turned
// away before the map hashes them.
type anchorGroup struct {
	skip, n int
	exact   bool
	first   [4]uint64
	ids     map[string][]int32
}

// mayHold reports whether key's first byte starts some literal of g.
func (g *anchorGroup) mayHold(key string) bool {
	return len(key) == 0 || g.first[key[0]>>6]&(1<<(key[0]&63)) != 0
}

// Add files id under m's anchor and reports whether m states one; a
// matcher without an anchor (wildcard-like, class runs, general shapes)
// is left to the caller to scan.
func (x *AnchorIndex) Add(m *Matcher, id int32) bool {
	skip, lit, exact, ok := m.Anchor()
	if !ok {
		return false
	}
	i := 0
	for ; i < len(x.groups) && x.groups[i].skip <= skip; i++ {
		if g := &x.groups[i]; g.skip == skip && g.n == len(lit) && g.exact == exact {
			g.add(lit, id)
			return true
		}
	}
	x.groups = slices.Insert(x.groups, i, anchorGroup{
		skip: skip, n: len(lit), exact: exact, ids: map[string][]int32{},
	})
	x.groups[i].add(lit, id)
	return true
}

// add files id under lit.
func (g *anchorGroup) add(lit string, id int32) {
	g.ids[lit] = append(g.ids[lit], id)
	if lit != "" {
		g.first[lit[0]>>6] |= 1 << (lit[0] & 63)
	}
}

// Lookup appends to dst the ids whose anchor v carries, one run per
// group, and reports how many non-empty runs it appended. Each run
// keeps Add order, so ids added in ascending order make every run
// ascending.
func (x *AnchorIndex) Lookup(v string, dst []int32) ([]int32, int) {
	runs := 0
	// rest is v past its first skipped runes; groups ascend by skip, so
	// each group skips on from the last.
	rest, skipped, restOK := v, 0, true
	for i := range x.groups {
		g := &x.groups[i]
		key := v
		if g.exact {
			if len(v) != g.n {
				continue
			}
		} else {
			if g.skip != skipped && restOK {
				rest, restOK = skipRunes(rest, g.skip-skipped)
				skipped = g.skip
			}
			if !restOK || len(rest) < g.n {
				continue
			}
			key = rest[:g.n]
		}
		if !g.mayHold(key) {
			continue
		}
		if ids := g.ids[key]; len(ids) > 0 {
			runs++
			dst = append(dst, ids...)
		}
	}
	return dst, runs
}

// skipRunes drops n leading runes from s, decoding as the prefix
// matcher does; ok is false when s has fewer than n runes.
func skipRunes(s string, n int) (string, bool) {
	for i := 0; i < n; i++ {
		if s == "" {
			return "", false
		}
		_, w := utf8.DecodeRuneInString(s)
		s = s[w:]
	}
	return s, true
}
