package ooc

import (
	"context"
	"runtime"
	"sort"

	"pfd/internal/discovery"
	"pfd/internal/kernel"
	"pfd/internal/lattice"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// driver carries the state of one discovery run between ingest and the
// lattice walk.
type driver struct {
	name     string
	merger   *DictMerger
	cs       *chunkSet
	params   discovery.Params
	profiles []relation.ColumnProfile
	usable   []int
	bounds   *bounder
	screen   map[string]bool // non-nil under VerifySample
	memLimit int64
	stats    *Stats
}

// batch is one projection's worth of candidates: the union of their
// columns (sorted ascending, so projected column order matches global
// column order) and the level-candidate indices it evaluates.
type batch struct {
	cols  []int
	cands []int
}

// walk replicates DiscoverContext's lattice walk exactly, evaluating
// each level's surviving candidates in column-bounded projection
// batches: candidates are screened (VerifySample) and bound-pruned,
// the rest are grouped so a batch's columns fit the projection budget,
// each batch is assembled as a full-row table of just those columns
// and evaluated with the in-memory machinery, and variable-row prunes
// are applied in candidate order at the level barrier — the same
// order in-memory discovery applies them.
func (d *driver) walk(ctx context.Context) ([]*discovery.Dependency, error) {
	lat := lattice.New(d.usable)
	var all []*discovery.Dependency
	for level := 1; level <= d.params.MaxLHS; level++ {
		if err := ctx.Err(); err != nil {
			return all, err
		}
		cands := lat.Level(level)
		d.stats.Candidates += len(cands)
		deps := make([]*discovery.Dependency, len(cands))
		var eval []int
		for i, c := range cands {
			if d.screen != nil && !d.screen[candKey(d.merger.Cols(), c)] {
				d.stats.ScreenedOut++
				continue
			}
			if d.bounds.prune(c) {
				d.stats.PrunedByBound++
				continue
			}
			eval = append(eval, i)
		}
		for _, b := range d.batches(cands, eval) {
			d.stats.Batches++
			bdeps, err := d.evalBatch(ctx, cands, b)
			if err != nil {
				return all, err
			}
			for k, ci := range b.cands {
				deps[ci] = bdeps[k]
			}
			d.stats.Evaluated += len(b.cands)
		}
		for i, dep := range deps {
			if dep == nil {
				continue
			}
			all = append(all, dep)
			if dep.Variable {
				lat.Prune(cands[i].LHS, cands[i].RHS)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Embedded() < all[j].Embedded() })
	return all, nil
}

// batches groups the surviving candidates so each group's column union
// stays within the projection budget (MemLimit/2; a single batch when
// unlimited). Grouping is greedy in candidate order; a batch always
// takes at least one candidate, so a single oversized candidate still
// evaluates.
func (d *driver) batches(cands []lattice.Candidate, eval []int) []batch {
	if len(eval) == 0 {
		return nil
	}
	budget := int64(0)
	if d.memLimit > 0 {
		budget = d.memLimit / 2
	}
	var out []batch
	var cur batch
	in := map[int]bool{}
	var curBytes int64
	flush := func() {
		if len(cur.cands) == 0 {
			return
		}
		sort.Ints(cur.cols)
		out = append(out, cur)
		cur = batch{}
		in = map[int]bool{}
		curBytes = 0
	}
	for _, ci := range eval {
		cols := candCols(cands[ci])
		var addBytes int64
		for _, c := range cols {
			if !in[c] {
				addBytes += d.colBytes(c)
			}
		}
		if budget > 0 && len(cur.cands) > 0 && curBytes+addBytes > budget {
			flush()
			addBytes = 0
			for _, c := range cols {
				addBytes += d.colBytes(c)
			}
		}
		for _, c := range cols {
			if !in[c] {
				in[c] = true
				cur.cols = append(cur.cols, c)
			}
		}
		curBytes += addBytes
		cur.cands = append(cur.cands, ci)
	}
	flush()
	return out
}

// colBytes estimates a projected column's footprint: one code per row
// plus the global dictionary.
func (d *driver) colBytes(c int) int64 {
	b := 4 * int64(d.merger.Rows())
	for _, v := range d.merger.Dict(c) {
		b += int64(len(v)) + 16
	}
	return b
}

// evalBatch assembles the batch's projection and runs the exact
// in-memory candidate evaluation over it.
func (d *driver) evalBatch(ctx context.Context, cands []lattice.Candidate, b batch) ([]*discovery.Dependency, error) {
	t, err := d.project(ctx, b.cols)
	if err != nil {
		return nil, err
	}
	pos := make(map[int]int, len(b.cols))
	names := make([]string, len(b.cols))
	profs := make([]relation.ColumnProfile, len(b.cols))
	for i, c := range b.cols {
		pos[c] = i
		names[i] = d.merger.Cols()[c]
		profs[i] = d.profiles[c]
	}
	bcands := make([]lattice.Candidate, len(b.cands))
	for k, ci := range b.cands {
		src := cands[ci]
		lhs := make([]int, len(src.LHS))
		for j, c := range src.LHS {
			lhs[j] = pos[c]
		}
		bcands[k] = lattice.Candidate{LHS: lhs, RHS: pos[src.RHS]}
	}
	return discovery.EvalCandidates(ctx, t, profs, names, d.params, bcands)
}

// projectWorkers is the width of the kernel.ForEach pool the
// projection's chunks run on; a variable so tests can pin sequential
// and parallel builds against each other.
var projectWorkers = runtime.GOMAXPROCS(0)

// project assembles a full-row table of the given global columns: each
// chunk's code vectors are remapped into the global code space and
// concatenated, and the table adopts the merged global dictionaries.
// The result is byte-identical to projecting the monolithic relation.
func (d *driver) project(ctx context.Context, cols []int) (*relation.Table, error) {
	n := d.merger.Rows()
	codes := make([][]uint32, len(cols))
	for i := range cols {
		codes[i] = make([]uint32, n)
	}
	// Each chunk writes a disjoint, position-determined row range of
	// every projected column, so chunks can build in parallel: offsets
	// are precomputed from the chunk row counts, loads are read-only
	// (resident chunks are shared, spilled ones re-read from their own
	// file), and the output is byte-identical at any worker count —
	// exactly the property the differential golden pins.
	offsets := make([]int, len(d.cs.chunks))
	off := 0
	for ci, ref := range d.cs.chunks {
		offsets[ci] = off
		off += ref.rows
	}
	err := kernel.ForEach[struct{}](ctx, projectWorkers, len(d.cs.chunks), nil, func(_ struct{}, ci int) error {
		ref := d.cs.chunks[ci]
		t, err := d.cs.load(ref)
		if err != nil {
			return err
		}
		for i, c := range cols {
			remap := ref.remaps[c]
			dst := codes[i][offsets[ci]:]
			for r, code := range t.Codes(c) {
				dst[r] = remap[code]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cols))
	dicts := make([][]string, len(cols))
	for i, c := range cols {
		names[i] = d.merger.Cols()[c]
		dicts[i] = d.merger.Dict(c)
	}
	return relation.NewFromColumns(d.name, names, dicts, codes)
}

// candCols returns the candidate's distinct columns (LHS is sorted and
// the RHS never repeats an LHS column).
func candCols(c lattice.Candidate) []int {
	cols := make([]int, 0, len(c.LHS)+1)
	cols = append(cols, c.LHS...)
	cols = append(cols, c.RHS)
	return cols
}

// candKey renders a candidate as its embedded-FD string, the screen
// key sample mining produces.
func candKey(names []string, c lattice.Candidate) string {
	lhs := make([]string, len(c.LHS))
	for i, l := range c.LHS {
		lhs[i] = names[l]
	}
	return pfd.EmbeddedFD(lhs, names[c.RHS])
}
