// Package fd implements the functional-dependency baselines the paper
// compares against (Section 5.1): FDep [Flach & Savnik 1999], via negative
// cover inversion, and a TANE-style level-wise partition algorithm
// [Huhtala et al. 1999] that also powers the embedded-FD checks of the PFD
// discovery lattice. Attribute sets are bitmasks, so relations are limited
// to 64 attributes — far beyond the paper's tables (5-9 columns).
package fd

import (
	"math/bits"
	"sort"

	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// AttrSet is a bitmask of column indices.
type AttrSet uint64

// NewAttrSet builds a set from column indices.
func NewAttrSet(idx ...int) AttrSet {
	var s AttrSet
	for _, i := range idx {
		s |= 1 << uint(i)
	}
	return s
}

// Has reports membership of column i.
func (s AttrSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Add returns s with column i added.
func (s AttrSet) Add(i int) AttrSet { return s | 1<<uint(i) }

// Remove returns s without column i.
func (s AttrSet) Remove(i int) AttrSet { return s &^ (1 << uint(i)) }

// Size returns the cardinality.
func (s AttrSet) Size() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports s ⊆ t.
func (s AttrSet) SubsetOf(t AttrSet) bool { return s&^t == 0 }

// Cols lists the member column indices in ascending order.
func (s AttrSet) Cols() []int {
	out := make([]int, 0, s.Size())
	for i := 0; i < 64; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Names renders the set against a table's column names.
func (s AttrSet) Names(t *relation.Table) []string {
	cols := s.Cols()
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = t.Cols[c]
	}
	return out
}

// An FD is an embedded functional dependency X -> B in normal form.
type FD struct {
	LHS AttrSet
	RHS int
}

// String renders the FD against a table's column names, as the
// embedded-FD key pfd.EmbeddedFD.
func (f FD) String(t *relation.Table) string {
	return pfd.EmbeddedFD(f.LHS.Names(t), t.Cols[f.RHS])
}

// SortFDs orders FDs deterministically (by RHS, then LHS mask).
func SortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].RHS != fds[j].RHS {
			return fds[i].RHS < fds[j].RHS
		}
		return fds[i].LHS < fds[j].LHS
	})
}
