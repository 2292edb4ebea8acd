// Package index provides the hash-based inverted pattern index of the
// paper's discovery algorithm (Figure 4, lines 5-12): for every attribute,
// a map from (partial value, position) to the set of tuple ids containing
// that partial value at that position, with the substring-pruning and
// single-semantics optimizations of Section 4.4.
package index

import (
	"math/bits"

	"pfd/internal/kernel"
)

// A Bitset is a fixed-capacity set of tuple ids. Its word layout is the
// kernel bitmap layout (bit r of word r/64 is id r), and every word-wise
// operation delegates to the internal/kernel scan primitives, so index
// bitsets and PFD match bitmaps compose without conversion.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset creates an empty set over ids [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, kernel.Words(n)), n: n}
}

// NewBitsetBatch creates count empty sets over ids [0, n) backed by one
// shared allocation — the bulk-materialization path for index postings,
// where per-set make calls dominate construction.
func NewBitsetBatch(count, n int) []Bitset {
	words := kernel.Words(n)
	backing := make([]uint64, count*words)
	out := make([]Bitset, count)
	for i := range out {
		out[i] = Bitset{words: backing[i*words : (i+1)*words : (i+1)*words], n: n}
	}
	return out
}

// Set adds id to the set.
func (b *Bitset) Set(id int) { b.words[id>>6] |= 1 << (uint(id) & 63) }

// Has reports membership of id.
func (b *Bitset) Has(id int) bool { return b.words[id>>6]&(1<<(uint(id)&63)) != 0 }

// Count returns the cardinality.
func (b *Bitset) Count() int { return kernel.PopcountSum(b.words) }

// Cap returns the id capacity the set was created with.
func (b *Bitset) Cap() int { return b.n }

// Clear removes every id, retaining capacity.
func (b *Bitset) Clear() { clear(b.words) }

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	out := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// And returns the intersection as a new set.
func (b *Bitset) And(o *Bitset) *Bitset {
	out := NewBitset(b.n)
	m := min(len(b.words), len(o.words))
	kernel.And(out.words[:m], b.words[:m], o.words[:m])
	return out
}

// AndCount returns the cardinality of the intersection without allocating.
func (b *Bitset) AndCount(o *Bitset) int { return kernel.AndCount(b.words, o.words) }

// Or returns the union as a new set.
func (b *Bitset) Or(o *Bitset) *Bitset {
	out := b.Clone()
	kernel.OrInPlace(out.words, o.words[:min(len(b.words), len(o.words))])
	return out
}

// OrInPlace unions o into b.
func (b *Bitset) OrInPlace(o *Bitset) {
	kernel.OrInPlace(b.words, o.words[:min(len(b.words), len(o.words))])
}

// Equal reports whether the two sets hold the same ids.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every id of b is in o.
func (b *Bitset) SubsetOf(o *Bitset) bool { return !kernel.AndNotAny(b.words, o.words) }

// SetSorted adds every id of ids (sorted posting-list order) to the set.
func (b *Bitset) SetSorted(ids []int32) { kernel.SetSorted(b.words, ids) }

// IDs returns the members in ascending order.
func (b *Bitset) IDs() []int {
	return kernel.AppendIDs(make([]int, 0, 16), b.words)
}

// ForEach calls fn for every member in ascending order, without
// allocating.
func (b *Bitset) ForEach(fn func(id int)) {
	for i, w := range b.words {
		for w != 0 {
			fn(i*kernel.WordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
