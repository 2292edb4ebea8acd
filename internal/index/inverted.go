// Package index provides the hash-based inverted pattern index of the
// paper's discovery algorithm (Figure 4, lines 5-12): for every attribute,
// a map from (partial value, position) to the set of tuple ids containing
// that partial value at that position, with the substring-pruning and
// single-semantics optimizations of Section 4.4. Each key's tuple ids are
// kept once, as a sorted posting list; RowEntries is the same relation
// read by row.
package index

import (
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"pfd/internal/relation"
)

// Key identifies one partial value: the text and the rune offset at which
// it occurs inside the attribute value — the (u, pos_u) of Figure 4.
type Key struct {
	Text string
	Pos  int
}

// Entry is one posting: a partial value and the tuple ids containing it.
type Entry struct {
	Key Key
	// List holds the ids in ascending order.
	List []int32
}

// Count returns the entry's support.
func (e *Entry) Count() int { return len(e.List) }

// Attribute is the inverted list of one column.
type Attribute struct {
	Name    string
	Mode    relation.ExtractMode
	Entries []Entry
	// RowEntries[row] lists, ascending, the indices into Entries whose
	// posting contains the row; it lets callers count pattern
	// frequencies within a row subset in time linear in the subset.
	RowEntries [][]int32
}

// Inverted is the per-table index H of Figure 4.
type Inverted struct {
	NumRows int
	Attrs   map[string]*Attribute
}

// Options tunes index construction.
type Options struct {
	// MaxGram caps n-gram length (0 = longest value in the column).
	MaxGram int
	// MinIDs drops postings supported by fewer tuples (0 keeps all).
	// Supports come from the dictionary before any posting is filled, so
	// high-cardinality columns stay cheap.
	MinIDs int
	// DisablePrune turns off the §4.4 substring pruning; used by the
	// ablation benchmarks to measure what the optimization buys.
	DisablePrune bool
}

// Build constructs the inverted index for the given columns of t (all
// columns when cols is nil), extracting partial values per each column's
// profile: tokens at separator boundaries, or anchored n-grams.
func Build(t *relation.Table, profiles []relation.ColumnProfile, cols []string, opt Options) *Inverted {
	if cols == nil {
		cols = t.Cols
	}
	profByName := make(map[string]relation.ColumnProfile, len(profiles))
	for _, p := range profiles {
		profByName[p.Name] = p
	}
	inv := &Inverted{NumRows: t.NumRows(), Attrs: make(map[string]*Attribute, len(cols))}
	for _, col := range cols {
		prof := profByName[col]
		inv.Attrs[col] = buildAttr(t, col, prof, opt)
	}
	return inv
}

// keySet is the outcome of a column's key pass: the keys whose
// support reaches MinIDs, their supports, and for every dictionary code
// the slots of the surviving keys its value carries (slots[start[c]:
// start[c+1]]). No key below MinIDs is ever in keys.
type keySet struct {
	keys    []Key
	support []int32
	start   []int32
	slots   []int32
}

// survives reports whether a key of support s is kept.
func (opt Options) survives(s int64) bool { return opt.MinIDs <= 0 || s >= int64(opt.MinIDs) }

// surviveKeys computes the surviving partial-value keys of one column
// from its dictionary alone, per the column's profile: tokens at
// separator boundaries plus the whole value, or anchored prefix grams.
// A key's support is the sum of the live counts of the distinct values
// carrying it (each row contributes each of its value's keys once).
// Values are normalized rune by rune, so in an invalid UTF-8 value each
// bad byte reads as U+FFFD, except in a token column's whole-value key,
// which keeps the raw value.
func surviveKeys(dict []string, counts []int, prof relation.ColumnProfile, opt Options) keySet {
	if prof.Mode == relation.ModeTokenize {
		return tokenKeys(dict, counts, opt)
	}
	return gramKeys(dict, counts, opt)
}

// gramKeys finds the surviving anchored prefix grams. With the live
// values sorted by their normalized form, the values carrying a prefix
// form one contiguous run, so its support is a difference of prefix
// sums. One stack walk over the neighbours' longest common prefixes
// (in runes, capped at MaxGram) visits every prefix once as a run; the
// stack holds, per open run start, the range of prefix lengths still
// open there. Only a run reaching MinIDs gets a key string, and that
// string is a prefix of the normalized value itself.
func gramKeys(dict []string, counts []int, opt Options) keySet {
	type live struct {
		norm  string
		code  int32
		runes int32 // rune length, capped at MaxGram
	}
	maxGram := math.MaxInt32
	if opt.MaxGram > 0 {
		maxGram = opt.MaxGram
	}
	vals := make([]live, 0, len(dict))
	for code, v := range dict {
		if v == "" || counts[code] == 0 {
			continue
		}
		if !utf8.ValidString(v) {
			v = string([]rune(v))
		}
		vals = append(vals, live{norm: v, code: int32(code), runes: int32(min(utf8.RuneCountInString(v), maxGram))})
	}
	slices.SortFunc(vals, func(a, b live) int { return strings.Compare(a.norm, b.norm) })
	cum := make([]int64, len(vals)+1)
	for i, v := range vals {
		cum[i+1] = cum[i] + int64(counts[v.code])
	}

	// open: prefix lengths lo..hi of the value at start all begin their
	// run at start. Ranges on the stack are disjoint and ascending.
	type open struct{ lo, hi, start int32 }
	var stack []open
	var ks keySet
	var runs [][2]int32 // per surviving key, its run [start, end) in vals
	for i := 0; i <= len(vals); i++ {
		h := int32(0)
		if i > 0 && i < len(vals) {
			h = int32(commonRunes(vals[i-1].norm, vals[i].norm))
		}
		// Every open length above h ends its run at i. No range reaches
		// past MaxGram, so an h above it closes nothing.
		for len(stack) > 0 && stack[len(stack)-1].hi > h {
			o := &stack[len(stack)-1]
			lo := max(o.lo, h+1)
			if s := cum[i] - cum[o.start]; opt.survives(s) {
				for _, text := range runePrefixes(vals[o.start].norm, int(lo), int(o.hi)) {
					ks.keys = append(ks.keys, Key{Text: text})
					ks.support = append(ks.support, int32(s))
					runs = append(runs, [2]int32{o.start, int32(i)})
				}
			}
			if o.lo <= h {
				o.hi = h
				break
			}
			stack = stack[:len(stack)-1]
		}
		if i < len(vals) && vals[i].runes > h {
			stack = append(stack, open{lo: h + 1, hi: vals[i].runes, start: int32(i)})
		}
	}

	// Invert the runs into each code's surviving slots.
	ks.start = make([]int32, len(dict)+1)
	for _, r := range runs {
		for _, v := range vals[r[0]:r[1]] {
			ks.start[v.code+1]++
		}
	}
	for c := range dict {
		ks.start[c+1] += ks.start[c]
	}
	ks.slots = make([]int32, ks.start[len(dict)])
	fill := slices.Clone(ks.start[:len(dict)])
	for slot, r := range runs {
		for _, v := range vals[r[0]:r[1]] {
			ks.slots[fill[v.code]] = int32(slot)
			fill[v.code]++
		}
	}
	return ks
}

// commonRunes returns the length in runes of the longest common prefix
// of two valid UTF-8 strings.
func commonRunes(a, b string) int {
	n := min(len(a), len(b))
	p := 0
	for p < n && a[p] == b[p] {
		p++
	}
	// Equal bytes up to p mean equal runes up to the last rune start.
	for p < n && p > 0 && !utf8.RuneStart(a[p]) {
		p--
	}
	return utf8.RuneCountInString(a[:p])
}

// runePrefixes returns the prefixes of s that are lo..hi runes long.
func runePrefixes(s string, lo, hi int) []string {
	out := make([]string, 0, hi-lo+1)
	l := 0
	for i := range s {
		if l >= lo {
			out = append(out, s[:i])
		}
		if l++; l > hi {
			return out
		}
	}
	return append(out, s)
}

// tokenKeys finds the surviving (token, rune offset) keys plus the
// whole-value keys. A valid UTF-8 value is tokenized in place, so each
// token is a substring of the value; an invalid one goes through
// relation.Tokenize, whose tokens carry U+FFFD. One map gives every
// token key a slot, hashing each token occurrence once; a whole-value
// key takes a fresh slot. Survivors are then chosen and renumbered by
// slot.
func tokenKeys(dict []string, counts []int, opt Options) keySet {
	slotOf := make(map[Key]int32, 2*len(dict))
	all := make([]Key, 0, 2*len(dict))
	support := make([]int64, 0, 2*len(dict))
	start := make([]int32, len(dict)+1)
	slots := make([]int32, 0, 2*len(dict))
	add := func(k Key, c int64) {
		s, ok := slotOf[k]
		if !ok {
			s = int32(len(all))
			slotOf[k] = s
			all = append(all, k)
			support = append(support, 0)
		}
		support[s] += c
		slots = append(slots, s)
	}
	for code, v := range dict {
		start[code] = int32(len(slots))
		if v == "" || counts[code] == 0 {
			continue
		}
		c := int64(counts[code])
		// The whole value is always a candidate partial pattern; the
		// paper's Example 8 prefers full values as "more expressive"
		// and substring pruning removes tokens they subsume. Within one
		// value the keys are pairwise distinct: token offsets differ,
		// and the whole value is added only when no single token
		// already equals it.
		whole := true
		if utf8.ValidString(v) {
			ntok, tokStart, tokPos, pos := 0, -1, 0, 0
			for i, r := range v {
				switch {
				case relation.IsSeparator(r):
					if tokStart >= 0 {
						add(Key{Text: v[tokStart:i], Pos: tokPos}, c)
						ntok++
						tokStart = -1
					}
				case tokStart < 0:
					tokStart, tokPos = i, pos
				}
				pos++
			}
			if tokStart >= 0 {
				add(Key{Text: v[tokStart:], Pos: tokPos}, c)
				whole = ntok > 0 || tokStart > 0
			}
		} else {
			toks, offs := relation.Tokenize(v)
			for i, tok := range toks {
				add(Key{Text: tok, Pos: offs[i]}, c)
			}
		}
		// A whole-value key holds a separator or invalid UTF-8, so it
		// equals no token key, and dictionary values are distinct: it
		// takes a fresh slot without the map.
		if whole {
			slots = append(slots, int32(len(all)))
			all = append(all, Key{Text: v})
			support = append(support, c)
		}
	}
	start[len(dict)] = int32(len(slots))

	// Renumber the survivors densely and drop every other slot from the
	// per-code lists, in place.
	ks := keySet{start: start}
	renum := make([]int32, len(all))
	for s, sup := range support {
		renum[s] = -1
		if opt.survives(sup) {
			renum[s] = int32(len(ks.keys))
			ks.keys = append(ks.keys, all[s])
			ks.support = append(ks.support, int32(sup))
		}
	}
	w, lo := int32(0), int32(0)
	for c := range dict {
		hi := start[c+1]
		for _, s := range slots[lo:hi] {
			if r := renum[s]; r >= 0 {
				slots[w] = r
				w++
			}
		}
		lo = hi
		start[c+1] = w
	}
	ks.slots = slots[:w]
	return ks
}

// KeySupports computes the supports of one column's keys from its
// dictionary alone — exactly the supports the index entries of Build
// would have, with no row data touched. Only keys reaching opt.MinIDs
// are returned. The out-of-core driver uses it to bound candidate
// coverage from the merged global dictionary before deciding which
// candidates are worth a chunk pass.
func KeySupports(dict []string, counts []int, prof relation.ColumnProfile, opt Options) map[Key]int32 {
	ks := surviveKeys(dict, counts, prof, opt)
	out := make(map[Key]int32, len(ks.keys))
	for i, k := range ks.keys {
		out[k] = ks.support[i]
	}
	return out
}

// buildAttr builds one column's postings. The key pass runs once per
// distinct value and knows every support before a posting exists, so
// postings are pre-sized exactly and the per-row pass only fans rows
// out through the codes.
func buildAttr(t *relation.Table, col string, prof relation.ColumnProfile, opt Options) *Attribute {
	ci := t.MustCol(col)
	dict, counts, codes := t.Dict(ci), t.DictCounts(ci), t.Codes(ci)
	ks := surviveKeys(dict, counts, prof, opt)
	entries := make([]Entry, len(ks.keys))
	for i, k := range ks.keys {
		entries[i] = Entry{Key: k, List: make([]int32, 0, ks.support[i])}
	}
	// Row fan-out: pure appends through the code vector — no hashing.
	for row, code := range codes {
		for _, ei := range ks.slots[ks.start[code]:ks.start[code+1]] {
			entries[ei].List = append(entries[ei].List, int32(row))
		}
	}
	return finishAttr(col, prof.Mode, entries, t.NumRows(), opt)
}

// finishAttr orders and prunes the postings, then materializes the
// row -> entries mapping (exact-capacity, sized by a degree-counting
// pass; each row's entry indices ascend).
func finishAttr(col string, mode relation.ExtractMode, entries []Entry, numRows int, opt Options) *Attribute {
	a := &Attribute{Name: col, Mode: mode, Entries: entries}
	a.sortEntries()
	if !opt.DisablePrune {
		a.pruneSubstrings()
	}
	degree := make([]int32, numRows)
	for i := range a.Entries {
		for _, id := range a.Entries[i].List {
			degree[id]++
		}
	}
	a.RowEntries = make([][]int32, numRows)
	flat := make([]int32, 0, int(sum32(degree)))
	for id, d := range degree {
		a.RowEntries[id] = flat[len(flat) : len(flat) : len(flat)+int(d)]
		flat = flat[:len(flat)+int(d)]
	}
	for i := range a.Entries {
		for _, id := range a.Entries[i].List {
			a.RowEntries[id] = append(a.RowEntries[id], int32(i))
		}
	}
	return a
}

func sum32(xs []int32) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

// sortEntries orders postings by descending support, then longer text,
// then lexicographic, for deterministic iteration.
func (a *Attribute) sortEntries() {
	sort.Slice(a.Entries, func(i, j int) bool {
		ci, cj := a.Entries[i].Count(), a.Entries[j].Count()
		if ci != cj {
			return ci > cj
		}
		ti, tj := a.Entries[i].Key, a.Entries[j].Key
		if len(ti.Text) != len(tj.Text) {
			return len(ti.Text) > len(tj.Text)
		}
		if ti.Text != tj.Text {
			return ti.Text < tj.Text
		}
		return ti.Pos < tj.Pos
	})
}

// pruneSubstrings implements the §4.4 substring-pruning optimization: when
// one posting's text is a substring of another's and both cover exactly
// the same tuples, only the most specific (longest) survives — e.g. 900
// and 9000 both covering {s1..s4} keep only 9000, and the token Angeles is
// dropped in favor of the whole value Los Angeles.
//
// Subsumption requires identical posting lists, so candidates are bucketed
// by a (length, hash) signature of the list and only same-signature kept
// entries are pairwise compared — near-linear instead of O(E²) over all
// entries; the equalLists check below still guards against collisions.
func (a *Attribute) pruneSubstrings() {
	type listSig struct {
		n int
		h uint64
	}
	sigOf := func(l []int32) listSig { return listSig{n: len(l), h: hashList(l)} }
	buckets := make(map[listSig][]int32, len(a.Entries))
	keep := a.Entries[:0]
	for _, e := range a.Entries {
		sig := sigOf(e.List)
		subsumed := false
		for _, ki := range buckets[sig] {
			k := &keep[ki]
			if len(k.Key.Text) > len(e.Key.Text) &&
				strings.Contains(k.Key.Text, e.Key.Text) && equalLists(k.List, e.List) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			buckets[sig] = append(buckets[sig], int32(len(keep)))
			keep = append(keep, e)
		}
	}
	a.Entries = keep
}

// hashList is FNV-1a over the id list.
func hashList(l []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range l {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(id >> s))
			h *= 1099511628211
		}
	}
	return h
}

func equalLists(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumPatterns returns how many distinct postings the attribute holds —
// the "number of frequent patterns" used to pick the starting attribute
// in Figure 4, line 15.
func (a *Attribute) NumPatterns() int { return len(a.Entries) }

// CountWithin tallies, for each entry of the attribute, how many of the
// given rows it contains, returning a slice indexed like Entries. Cost is
// linear in len(rows) times the rows' entry degree.
func (a *Attribute) CountWithin(rows []int32) []int32 {
	return a.CountWithinInto(nil, rows)
}

// CountWithinInto is CountWithin with a caller-owned buffer: buf is grown
// or cleared to len(Entries) and reused, so steady-state callers (the
// discovery candidate loop) stay off the allocator.
func (a *Attribute) CountWithinInto(buf []int32, rows []int32) []int32 {
	if cap(buf) < len(a.Entries) {
		buf = make([]int32, len(a.Entries))
	} else {
		buf = buf[:len(a.Entries)]
		for i := range buf {
			buf[i] = 0
		}
	}
	for _, r := range rows {
		for _, ei := range a.RowEntries[r] {
			buf[ei]++
		}
	}
	return buf
}

// Filter returns the subset of rows contained in entry ei, preserving
// order. Each row's membership is a binary search of its ascending
// RowEntries, so the cost is the rows times the log of their degree.
func (a *Attribute) Filter(rows []int32, ei int) []int32 {
	out := make([]int32, 0, len(rows))
	for _, r := range rows {
		if _, ok := slices.BinarySearch(a.RowEntries[r], int32(ei)); ok {
			out = append(out, r)
		}
	}
	return out
}
