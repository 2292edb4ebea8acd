package ooc

import (
	"math"

	"pfd/internal/discovery"
	"pfd/internal/index"
	"pfd/internal/lattice"
	"pfd/internal/relation"
)

// colBound summarizes one usable column's dictionary-level key
// supports for candidate pruning.
type colBound struct {
	// sumEligible is the total support of keys with
	// MinSupport <= s < vacuousLimit: starting patterns tryCandidate
	// can actually draft from when this column leads the search.
	sumEligible int64
	// sumSupported is the total support of keys with s >= MinSupport,
	// the looser bound used when the leading column is unknown.
	sumSupported int64
	// hasRHS reports whether any key is usable as an RHS pattern
	// (MinSupport <= s < vacuousLimit) — without one, bestEntry can
	// never accept a tableau row with this RHS.
	hasRHS bool
}

// bounder prunes lattice candidates from dictionary-level key supports
// alone. The bound is sound with respect to tryCandidate: a pruned
// candidate is one whose constant-tableau coverage cannot reach
// MinCoverage (or that cannot draft any tableau row at all), so
// in-memory evaluation would have returned nil for it. Pruning it
// therefore changes nothing downstream — nil dependencies never prune
// the lattice — and byte-identity with in-memory discovery holds.
type bounder struct {
	n           int
	minCoverage float64
	cols        map[int]colBound
}

// newBounder computes key supports per usable column straight from the
// merged global dictionaries — no row data.
func newBounder(m *DictMerger, profiles []relation.ColumnProfile, usable []int, params discovery.Params) *bounder {
	b := &bounder{
		n:           m.Rows(),
		minCoverage: params.MinCoverage,
		cols:        make(map[int]colBound, len(usable)),
	}
	vacuousLimit := int32(math.Ceil(float64(b.n) * (1 - params.Delta)))
	opt := index.Options{
		MaxGram:      params.MaxGram,
		MinIDs:       params.MinSupport,
		DisablePrune: params.DisableSubstringPrune,
	}
	for _, c := range usable {
		var cb colBound
		// KeySupports returns only the keys reaching MinSupport.
		for _, s := range index.KeySupports(m.Dict(c), m.Counts(c), profiles[c], opt) {
			cb.sumSupported += int64(s)
			if s < vacuousLimit {
				cb.sumEligible += int64(s)
				cb.hasRHS = true
			}
		}
		b.cols[c] = cb
	}
	return b
}

// prune reports whether the candidate's coverage upper bound falls
// below MinCoverage.
//
// Every accepted tableau row's row set is contained in the row list of
// a non-vacuous starting pattern of the leading LHS attribute, so the
// constant tableau's coverage count is at most the summed support of
// that attribute's eligible keys (overlapping grams only overcount).
// With a single LHS attribute the leading attribute is known; with
// more, the leading attribute is whichever has the most index
// patterns, so the bound relaxes to the minimum over the LHS of each
// attribute's supported-key sum. Either way the bound caps at n. The
// RHS check is exact in kind: bestEntry only accepts RHS patterns with
// MinSupport <= support < vacuousLimit, so a column with none can
// never complete a tableau row.
func (b *bounder) prune(cand lattice.Candidate) bool {
	if !b.cols[cand.RHS].hasRHS {
		return true
	}
	var ub int64
	if len(cand.LHS) == 1 {
		ub = b.cols[cand.LHS[0]].sumEligible
	} else {
		ub = int64(b.n)
		for _, c := range cand.LHS {
			if s := b.cols[c].sumSupported; s < ub {
				ub = s
			}
		}
	}
	if ub > int64(b.n) {
		ub = int64(b.n)
	}
	return float64(ub)/float64(b.n) < b.minCoverage
}
