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
// it, in Add order.
type anchorGroup struct {
	skip, n int
	exact   bool
	ids     map[string][]int32
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
			g.ids[lit] = append(g.ids[lit], id)
			return true
		}
	}
	x.groups = slices.Insert(x.groups, i, anchorGroup{
		skip: skip, n: len(lit), exact: exact, ids: map[string][]int32{lit: {id}},
	})
	return true
}

// Lookup appends to dst the ids whose anchor v carries, one run per
// group, and reports how many non-empty runs it appended. Each run
// keeps Add order, so ids added in ascending order make every run
// ascending.
func (x *AnchorIndex) Lookup(v string, dst []int32) ([]int32, int) {
	runs := 0
	lastSkip := -1
	var rest string
	restOK := false
	for i := range x.groups {
		g := &x.groups[i]
		var ids []int32
		if g.exact {
			if len(v) != g.n {
				continue
			}
			ids = g.ids[v]
		} else {
			if g.skip != lastSkip {
				lastSkip = g.skip
				rest, restOK = skipRunes(v, g.skip)
			}
			if !restOK || len(rest) < g.n {
				continue
			}
			ids = g.ids[rest[:g.n]]
		}
		if len(ids) > 0 {
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
