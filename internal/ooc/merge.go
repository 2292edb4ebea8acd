package ooc

import (
	"fmt"
	"slices"

	"pfd/internal/relation"
)

// DictMerger folds per-chunk dictionaries into one append-only global
// dictionary per column, plus exact global value counts.
//
// A chunk's dictionary lists values in first-appearance order within
// the chunk, so interning chunk dictionaries in chunk order, code by
// code, reproduces the sequential first-appearance order of the whole
// relation: the merged dictionary is byte-identical to the one a
// single monolithic scan would have built, which is what makes
// projected tables — and everything downstream of their dictionaries —
// byte-identical to in-memory discovery.
//
// Global codes are append-only: a remap computed for a chunk stays
// valid forever, so remaps are computed once at ingest and kept.
type DictMerger struct {
	cols   []string
	dicts  [][]string
	counts [][]int
	lookup []map[string]uint32
	rows   int
}

// NewDictMerger returns an empty merger; the first merged chunk fixes
// the column set.
func NewDictMerger() *DictMerger { return &DictMerger{} }

// Merge folds one chunk into the global dictionaries and returns the
// chunk's remap vectors: remaps[col][chunkCode] is the global code of
// that chunk-local code. Chunks after the first must carry the same
// columns in the same order.
//
// Zero-count (retired) chunk dictionary entries are still interned in
// code order — skipping them would shift every later code and
// invalidate the remap. Chunks assembled by row appends never contain
// them, so the global first-appearance order is unaffected in the
// paths the driver builds itself.
func (m *DictMerger) Merge(t *relation.Table) ([][]uint32, error) {
	if m.cols == nil {
		m.cols = append([]string(nil), t.Cols...)
		m.dicts = make([][]string, len(m.cols))
		m.counts = make([][]int, len(m.cols))
		m.lookup = make([]map[string]uint32, len(m.cols))
		for i := range m.cols {
			m.lookup[i] = make(map[string]uint32)
		}
	} else if !slices.Equal(t.Cols, m.cols) {
		return nil, fmt.Errorf("ooc: chunk columns %v do not match %v", t.Cols, m.cols)
	}
	remaps := make([][]uint32, len(m.cols))
	for c := range m.cols {
		dict := t.Dict(c)
		counts := t.DictCounts(c)
		remap := make([]uint32, len(dict))
		for code, v := range dict {
			g, ok := m.lookup[c][v]
			if !ok {
				g = uint32(len(m.dicts[c]))
				m.lookup[c][v] = g
				m.dicts[c] = append(m.dicts[c], v)
				m.counts[c] = append(m.counts[c], 0)
			}
			m.counts[c][g] += counts[code]
			remap[code] = g
		}
		remaps[c] = remap
	}
	m.rows += t.NumRows()
	return remaps, nil
}

// Rows returns the total rows merged so far.
func (m *DictMerger) Rows() int { return m.rows }

// Cols returns the column names fixed by the first chunk (nil before).
func (m *DictMerger) Cols() []string { return m.cols }

// Dict returns column col's global dictionary in first-appearance
// order. The slice is owned by the merger; callers must not mutate it.
func (m *DictMerger) Dict(col int) []string { return m.dicts[col] }

// Counts returns column col's exact global value counts, aligned with
// Dict.
func (m *DictMerger) Counts(col int) []int { return m.counts[col] }

// Profiles profiles every column from its global dictionary and
// counts — identical to relation.ProfileTable over the materialized
// relation, without holding any rows.
func (m *DictMerger) Profiles() []relation.ColumnProfile {
	out := make([]relation.ColumnProfile, len(m.cols))
	for i, c := range m.cols {
		out[i] = relation.ProfileValues(c, m.dicts[i], m.counts[i])
	}
	return out
}
