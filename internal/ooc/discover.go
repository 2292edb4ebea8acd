package ooc

import (
	"context"

	"pfd/internal/discovery"
	"pfd/internal/source"
)

// Discover runs out-of-core PFD discovery over src. Under VerifyFull
// (the default) the discovered dependencies are byte-identical to
// in-memory discovery.Discover over the materialized relation, for any
// chunk size, sample size, or memory limit.
func Discover(ctx context.Context, src source.Source, opt Options) (*Result, error) {
	opt.Params = opt.Params.Normalize()
	if opt.ChunkRows <= 0 {
		opt.ChunkRows = DefaultChunkRows
	}
	switch {
	case opt.Verify != VerifySample:
		opt.SampleRows = -1 // only the sample screen mines the sample
	case opt.SampleRows == 0:
		opt.SampleRows = DefaultSampleRows
	}
	res := &Result{Name: src.Name(), Params: opt.Params}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	merger := NewDictMerger()
	smp := newSampler(opt.SampleRows)
	cs := newChunkSet(opt.MemLimit, opt.SpillDir, &res.Stats)
	defer cs.cleanup()
	if err := ingest(ctx, src, opt, merger, smp, cs); err != nil {
		return res, err
	}
	res.Rows = merger.Rows()
	res.Stats.Rows = merger.Rows()
	res.Stats.SampleRows = len(smp.rows)
	res.Stats.SampleStride = smp.stride
	if merger.Rows() == 0 {
		return res, nil
	}

	// Profile every column from the merged dictionaries and prune
	// exactly as DiscoverContext does.
	res.Profiles = merger.Profiles()
	var usable []int
	for i, p := range res.Profiles {
		if !p.Quantitative && p.Distinct >= 2 {
			usable = append(usable, i)
		}
	}
	if len(usable) < 2 {
		return res, nil
	}

	// Under VerifySample the dependencies mined in memory from the
	// sample become the candidate screen. A sample that is the whole
	// input (or disabled) screens nothing, and VerifyFull's walk is
	// exact without one, so neither mines it.
	var screen map[string]bool
	if opt.Verify == VerifySample && len(smp.rows) > 0 && len(smp.rows) < merger.Rows() {
		st := smp.table(res.Name, merger.Cols())
		sres, err := discovery.DiscoverContext(ctx, st, opt.Params, nil)
		if err != nil {
			return res, err
		}
		screen = make(map[string]bool, len(sres.Dependencies))
		for _, dep := range sres.Dependencies {
			screen[dep.Embedded()] = true
		}
	}

	d := &driver{
		name:     res.Name,
		merger:   merger,
		cs:       cs,
		params:   opt.Params,
		profiles: res.Profiles,
		usable:   usable,
		bounds:   newBounder(merger, res.Profiles, usable, opt.Params),
		screen:   screen,
		memLimit: opt.MemLimit,
		stats:    &res.Stats,
	}
	deps, err := d.walk(ctx)
	if err != nil {
		return res, err
	}
	res.Dependencies = deps

	if !opt.SkipConfirm {
		health, rows, err := d.confirm(ctx, deps)
		if err != nil {
			return res, err
		}
		res.Health = health
		res.Stats.ConfirmRows = rows
	}
	return res, nil
}
