// Package kernel provides the branch-free columnar kernels the hot
// scan paths run on: 64-row chunks of dictionary code vectors are
// expanded into []uint64 row bitmaps (one bit per row), combined with
// word-wide boolean algebra, counted with popcounts, and gathered back
// into grouped row ids with a counting sort over interned span ids —
// over the whole code vector, or, for a cell that accepts few codes,
// over just those codes' rows in a column's code→rows Postings.
//
// The layout contract is shared with internal/relation's columnar
// core: a column is a dictionary plus a per-row code vector, and any
// per-row predicate factors into a per-dictionary flag table (computed
// once per distinct value) fanned out through the codes. The kernels
// here do the fan-out 64 rows per word: bit r of a bitmap is row r,
// the last word of an n-row bitmap keeps its top 64-(n mod 64) bits
// zero (see TailMask), and every operation is free of per-row
// branches, so the compiler keeps the inner loops in registers.
//
// ForEach is the one worker pool of a batch call; the scan kernels
// themselves are serial.
package kernel

import (
	"math/bits"
	"slices"
)

// WordBits is the chunk width: rows per bitmap word.
const WordBits = 64

// Words returns the number of 64-bit words a bitmap over n rows needs.
func Words(n int) int { return (n + WordBits - 1) / WordBits }

// TailMask returns the mask of valid bits in the last word of an n-row
// bitmap: all ones when n is a multiple of 64 (or zero), otherwise the
// low n mod 64 bits. Kernels producing bitmaps keep the tail bits
// beyond n clear so that popcounts and combinators never see ghost
// rows.
func TailMask(n int) uint64 {
	if r := n % WordBits; r != 0 {
		return (1 << uint(r)) - 1
	}
	return ^uint64(0)
}

// MatchBitmapSigned expands a signed per-dictionary id table into a
// row bitmap: bit r of dst is set iff ids[codes[r]] >= 0. dst must hold
// Words(len(codes)) words; it is fully overwritten (tail bits cleared)
// and returned. ids is indexed by dictionary code, so the expensive
// predicate (pattern matching, span evaluation) runs once per distinct
// value and this kernel is pure table lookups — 64 rows per output
// word, no per-row branches. Interned span ids are >= 0 for matching
// dictionary entries and -1 for rejected ones, so the match flag is
// the id's sign bit and no separate bool table is needed.
func MatchBitmapSigned(dst []uint64, codes []uint32, ids []int32) []uint64 {
	n := len(codes)
	var w uint64
	for r := 0; r < n; r++ {
		// Sign-bit extraction: ^id >> 31 is 1 for id >= 0, 0 for id < 0.
		b := uint64(uint32(^ids[codes[r]]) >> 31)
		w |= b << (uint(r) & 63)
		if r&63 == 63 {
			dst[r>>6] = w
			w = 0
		}
	}
	if n&63 != 0 {
		dst[n>>6] = w
	}
	return dst
}

// AndMatchBitmapSigned intersects a signed match bitmap into dst:
// dst &= MatchBitmapSigned(codes, ids), computed without materializing
// the right-hand bitmap. It is the multi-attribute LHS combinator —
// one pass per additional attribute, no scratch buffer.
func AndMatchBitmapSigned(dst []uint64, codes []uint32, ids []int32) {
	n := len(codes)
	var w uint64
	for r := 0; r < n; r++ {
		b := uint64(uint32(^ids[codes[r]]) >> 31)
		w |= b << (uint(r) & 63)
		if r&63 == 63 {
			dst[r>>6] &= w
			w = 0
		}
	}
	if n&63 != 0 {
		dst[n>>6] &= w
	}
}

// And writes a & b into dst (dst = a and dst = b are allowed). All
// three must have equal length.
func And(dst, a, b []uint64) {
	_ = dst[:len(a)]
	for i := range a {
		dst[i] = a[i] & b[i]
	}
}

// OrInPlace unions src into dst: dst |= src. src may be shorter than
// dst; missing words contribute nothing.
func OrInPlace(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// PopcountSum returns the total number of set bits — the support-count
// kernel: a match bitmap's popcount is its row coverage.
func PopcountSum(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetSorted sets the bit of every id in ids. The ids must be in range
// for the bitmap; sorted input (the usual case: posting lists, gathered
// groups) maximizes word locality but is not required.
func SetSorted(words []uint64, ids []int32) {
	for _, id := range ids {
		words[id>>6] |= 1 << (uint32(id) & 63)
	}
}

// Groups is the reusable output and scratch of the gather kernels: row
// ids grouped by interned span id, stored as one flat arena with group
// boundaries — no per-group allocations, so a steady-state caller
// (violation scanning over many tableau rows) stays off the allocator.
//
// After a gather, group g (0 <= g < Len()) holds Rows(g), ascending,
// and Sid(g) is its span id. Groups are in ascending span-id order —
// an arbitrary but deterministic order; callers needing a different
// presentation order sort group indices themselves.
type Groups struct {
	// counts is the per-span-id histogram scratch (len >= numSids).
	counts []int32
	// sids[g] is group g's span id.
	sids []int32
	// start[g] is group g's offset into ids; start[Len()] ends the arena.
	start []int32
	// ids is the flat row-id arena.
	ids []int32
	// cursor is the per-group write cursor during scatter.
	cursor []int32
	// marks is sortRows' bitmap scratch.
	marks []uint64
}

// Len returns the number of non-empty groups gathered.
func (g *Groups) Len() int { return len(g.sids) }

// Sid returns group i's span id.
func (g *Groups) Sid(i int) int32 { return g.sids[i] }

// Rows returns group i's row ids, ascending. The slice aliases the
// arena and is valid until the next gather into g.
func (g *Groups) Rows(i int) []int32 { return g.ids[g.start[i]:g.start[i+1]] }

// reset prepares the scratch for a gather over numSids span ids and
// clears the histogram.
func (g *Groups) reset(numSids int) {
	if cap(g.counts) < numSids {
		g.counts = make([]int32, numSids)
	} else {
		g.counts = g.counts[:numSids]
		clear(g.counts)
	}
	g.sids = g.sids[:0]
	g.start = g.start[:0]
	g.cursor = g.cursor[:0]
}

// layout turns the filled histogram into dense group slots and arena
// offsets, returning the slotOf table (span id -> group index, -1 when
// the span id has no rows). total is the arena size.
func (g *Groups) layout() (slotOf []int32, total int32) {
	// Reuse the histogram slice as slotOf: counts[sid] is consumed in
	// the same ascending pass that assigns slots.
	for sid, c := range g.counts {
		if c == 0 {
			g.counts[sid] = -1
			continue
		}
		slot := int32(len(g.sids))
		g.sids = append(g.sids, int32(sid))
		g.start = append(g.start, total)
		g.cursor = append(g.cursor, total)
		total += c
		g.counts[sid] = slot
	}
	g.start = append(g.start, total)
	if cap(g.ids) < int(total) {
		g.ids = make([]int32, total)
	} else {
		g.ids = g.ids[:total]
	}
	return g.counts, total
}

// GatherGroupsCodes groups every row whose span id is >= 0 by that
// span id: ids[codes[r]] names row r's group, -1 excludes it. Span ids
// are interned per dictionary entry, so every id is < len(ids) and the
// histogram is sized by the dictionary. weights, when non-nil, must be
// the per-code live multiplicities of the column's dictionary
// (relation.Table.DictCounts): the histogram is then computed in
// O(distinct) off the dictionary instead of a rows pass. With nil
// weights a counting pass over the codes builds it.
//
// This is the single-attribute grouping kernel of the violation scan:
// two counting-sort passes (histogram, scatter), no hashing, no
// per-group slices, rows emitted in ascending order within each group.
func GatherGroupsCodes(g *Groups, codes []uint32, ids []int32, weights []int) {
	g.reset(len(ids))
	if weights != nil {
		for code, sid := range ids {
			if sid >= 0 {
				g.counts[sid] += int32(weights[code])
			}
		}
	} else {
		for _, code := range codes {
			if sid := ids[code]; sid >= 0 {
				g.counts[sid]++
			}
		}
	}
	slotOf, _ := g.layout()
	for r, code := range codes {
		sid := ids[code]
		if sid < 0 {
			continue
		}
		slot := slotOf[sid]
		g.ids[g.cursor[slot]] = int32(r)
		g.cursor[slot]++
	}
}

// Hit is one entry of a sparse per-code span-id list: dictionary code
// Code carries span id Sid (>= 0). A sparse list names only the codes
// a cell accepts, ascending by code, so a cell that accepts k values
// costs k entries instead of one per dictionary code.
type Hit struct {
	Code uint32
	Sid  int32
}

// Postings is one column's code→rows index: Rows(code) lists the rows
// holding code, ascending. It is a counting sort of the code vector.
type Postings struct {
	// start[code] is code's offset into rows; start[len(dict)] ends it.
	start []int32
	rows  []int32
}

// BuildPostings indexes a code vector by code. counts must be the
// column's live per-code multiplicities (relation.Table.DictCounts),
// which are the histogram of codes, so the build is one prefix sum over
// the dictionary and one backward scatter over the rows.
func BuildPostings(codes []uint32, counts []int) *Postings {
	p := &Postings{start: make([]int32, len(counts)+1), rows: make([]int32, len(codes))}
	// start[code] first holds the end of code's run; the backward
	// scatter walks each cursor down to the run's start, filling the run
	// with ascending rows.
	var end int32
	for code, c := range counts {
		end += int32(c)
		p.start[code] = end
	}
	p.start[len(counts)] = end
	for r := len(codes) - 1; r >= 0; r-- {
		code := codes[r]
		p.start[code]--
		p.rows[p.start[code]] = int32(r)
	}
	return p
}

// Rows returns the rows holding code, ascending. The slice aliases the
// postings.
func (p *Postings) Rows(code uint32) []int32 { return p.rows[p.start[code]:p.start[code+1]] }

// GatherGroupsPostings is GatherGroupsCodes for a sparse span-id list:
// it groups the rows of every code in hits by the hit's span id, reading
// only those codes' postings. numSids bounds the span ids. The histogram
// is the k postings' lengths, sized by the span count rather than the
// dictionary, and the scatter copies whole postings, so the cost is the
// matched rows plus k and numSids, not the table or the dictionary.
// The output equals GatherGroupsCodes over the dense vector the hits
// expand to: groups in ascending span-id order, rows ascending within
// each group (a group filled from several codes is sorted).
func GatherGroupsPostings(g *Groups, post *Postings, hits []Hit, numSids int) {
	g.reset(numSids)
	for _, h := range hits {
		g.counts[h.Sid] += int32(len(post.Rows(h.Code)))
	}
	slotOf, _ := g.layout()
	for _, h := range hits {
		slot := slotOf[h.Sid]
		if slot < 0 {
			continue
		}
		g.cursor[slot] += int32(copy(g.ids[g.cursor[slot]:], post.Rows(h.Code)))
	}
	for i := range g.sids {
		if rows := g.Rows(i); !slices.IsSorted(rows) {
			g.sortRows(rows)
		}
	}
}

// sortRows sorts a group's distinct row ids. When the rows fill at
// least one bit per word of their range's bitmap, they are marked in
// that bitmap and read back in order, linear in the rows and the
// range; sparser groups take a comparison sort.
func (g *Groups) sortRows(rows []int32) {
	lo, hi := rows[0], rows[0]
	for _, r := range rows {
		lo, hi = min(lo, r), max(hi, r)
	}
	lo &^= WordBits - 1
	n := Words(int(hi-lo) + 1)
	if n > len(rows) {
		slices.Sort(rows)
		return
	}
	if cap(g.marks) < n {
		g.marks = make([]uint64, n)
	}
	marks := g.marks[:n]
	clear(marks)
	for _, r := range rows {
		marks[(r-lo)>>6] |= 1 << (uint32(r-lo) & 63)
	}
	i := 0
	for wi, w := range marks {
		for w != 0 {
			rows[i] = lo + int32(wi*WordBits+bits.TrailingZeros64(w))
			i++
			w &= w - 1
		}
	}
}
