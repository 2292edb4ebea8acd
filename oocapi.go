package pfd

import (
	"context"

	"pfd/internal/ooc"
	"pfd/internal/source"
)

// OOCStats reports what an out-of-core discovery run did: chunking,
// spill volume, sample shape, and how far the dictionary-level bound
// cut the candidate lattice.
type OOCStats = ooc.Stats

// RuleHealth is one rule's exact support/violation counters and
// confidence, from the out-of-core confirm pass or a Maintainer.
type RuleHealth = ooc.RuleHealth

// Maintainer folds streamed rows and violations into per-rule support
// and violation counters, re-ranking or demoting discovered PFDs
// without re-mining; see NewMaintainer.
type Maintainer = ooc.Maintainer

// NewMaintainer tracks the given rules for incremental maintenance.
// params supplies the demotion threshold (Delta, with MinSupport as
// slack); pass DefaultParams() or the Params of the discovery that
// produced the rules.
func NewMaintainer(pfds []*PFD, params Params) *Maintainer {
	return ooc.NewMaintainer(pfds, params)
}

// An OOCOption configures DiscoverOutOfCore.
type OOCOption func(*oocConfig)

type oocConfig struct {
	opt ooc.Options
}

func newOOCConfig(opts []OOCOption) oocConfig {
	cfg := oocConfig{opt: ooc.Options{Params: DefaultParams()}}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithOOCParams replaces the discovery parameter set for an
// out-of-core run.
func WithOOCParams(p Params) OOCOption {
	return func(c *oocConfig) { c.opt.Params = p }
}

// WithChunkRows bounds the rows per chunk when the driver does the
// chunking (row and tuple sources; chunked .pfdt sources define their
// own boundaries). <= 0 means the default (64Ki rows).
func WithChunkRows(n int) OOCOption {
	return func(c *oocConfig) { c.opt.ChunkRows = n }
}

// WithSampleRows sets the target size of the deterministic systematic
// sample that WithSampleVerify mines for its candidate screen; without
// WithSampleVerify no sample is collected. 0 means the default (64Ki
// rows); negative disables sampling.
func WithSampleRows(n int) OOCOption {
	return func(c *oocConfig) { c.opt.SampleRows = n }
}

// WithMemLimit caps the bytes of chunk data kept resident: beyond it,
// ingested chunks spill to .pfdt snapshots and candidate evaluation
// batches its column projections to half the limit. 0 (the default)
// keeps everything in memory.
func WithMemLimit(bytes int64) OOCOption {
	return func(c *oocConfig) { c.opt.MemLimit = bytes }
}

// WithSpillDir sets where spilled chunk snapshots go. The default is a
// fresh directory under the OS temp dir, removed when discovery
// returns.
func WithSpillDir(dir string) OOCOption {
	return func(c *oocConfig) { c.opt.SpillDir = dir }
}

// WithSampleVerify screens the candidate lattice down to the
// dependencies sample mining surfaced before the exact pass:
// candidates the sample missed are skipped, trading completeness for
// speed. Every reported dependency is still exactly evaluated against
// all rows. Without this option the run is exhaustive and
// byte-identical to in-memory Discover.
func WithSampleVerify() OOCOption {
	return func(c *oocConfig) { c.opt.Verify = ooc.VerifySample }
}

// WithoutConfirmPass skips the final full streaming pass that
// annotates each discovered rule with exact support and
// streaming-violation counts (OOCDiscovery.Health).
func WithoutConfirmPass() OOCOption {
	return func(c *oocConfig) { c.opt.SkipConfirm = true }
}

// OOCDiscovery is the result of DiscoverOutOfCore. Unlike Discovery it
// carries no materialized input table — that is the point.
type OOCDiscovery struct {
	result *ooc.Result
}

// Dependencies returns the discovered dependencies, sorted by their
// embedded FD. Without WithSampleVerify they are byte-identical to
// what in-memory Discover finds on the same rows.
func (d *OOCDiscovery) Dependencies() []*Dependency { return d.result.Dependencies }

// PFDs returns the discovered PFDs, in dependency order.
func (d *OOCDiscovery) PFDs() []*PFD {
	out := make([]*PFD, len(d.result.Dependencies))
	for i, dep := range d.result.Dependencies {
		out[i] = dep.PFD
	}
	return out
}

// Params returns the effective (normalized) discovery parameters.
func (d *OOCDiscovery) Params() Params { return d.result.Params }

// Profiles returns the per-column profiles, computed from the merged
// global dictionaries — identical to profiling the materialized
// relation.
func (d *OOCDiscovery) Profiles() []ColumnProfile { return d.result.Profiles }

// Stats reports chunking, spilling, sampling, and lattice pruning.
func (d *OOCDiscovery) Stats() OOCStats { return d.result.Stats }

// Health returns the confirm pass's exact per-rule counters, ranked
// by confidence (empty under WithoutConfirmPass).
func (d *OOCDiscovery) Health() []RuleHealth { return d.result.Health }

// Maintainer returns a Maintainer tracking the discovered rules,
// seeded with the confirm pass's counters when available — the
// incremental-maintenance entry point.
func (d *OOCDiscovery) Maintainer() *Maintainer {
	m := ooc.NewMaintainer(d.PFDs(), d.result.Params)
	for _, h := range d.result.Health {
		m.Seed(h)
	}
	m.ObserveRows(d.result.Rows)
	return m
}

// Ruleset packages the discovered PFDs as a durable artifact with
// provenance. The envelope is identical to Discovery.Ruleset for the
// same input, so serialized artifacts from the two paths compare
// byte for byte.
func (d *OOCDiscovery) Ruleset() *Ruleset {
	params := d.result.Params
	return &Ruleset{
		Name: d.result.Name,
		Provenance: &Provenance{
			Source: d.result.Name,
			Rows:   d.result.Rows,
			Tool:   "discover",
			Params: &params,
		},
		PFDs: d.PFDs(),
	}
}

// DiscoverOutOfCore mines PFDs without materializing the input: the
// source is partitioned into bounded columnar chunks (spilled to
// .pfdt snapshots under WithMemLimit), per-chunk dictionaries merge
// into an append-only global dictionary, a deterministic sample is
// mined in memory, and surviving lattice candidates are verified
// exactly against all rows in column-bounded batches. Without
// WithSampleVerify the result is byte-identical to Discover on the
// same rows, for any chunk size, sample size, or memory limit.
// A final streaming pass annotates each rule with exact support and
// violation counts (Health), ready to seed incremental maintenance.
func DiscoverOutOfCore(ctx context.Context, src Source, opts ...OOCOption) (*OOCDiscovery, error) {
	cfg := newOOCConfig(opts)
	res, err := ooc.Discover(ctx, src, cfg.opt)
	if err != nil {
		rows := 0
		if res != nil {
			rows = res.Rows
		}
		return nil, wrapCanceled(err, "discover", rows)
	}
	return &OOCDiscovery{result: res}, nil
}

// FromSnapshotFiles names an ordered list of .pfdt chunk files (as
// written by `pfd datagen -chunk-rows` or repeated
// Table.WriteSnapshotFile calls) as one logical relation. The source
// is re-iterable, and DiscoverOutOfCore consumes it chunk by chunk —
// the files are never materialized together. name overrides the
// relation name ("" adopts the first chunk's stored name). All chunks
// must share the first chunk's column set and order.
func FromSnapshotFiles(name string, paths ...string) Source {
	return source.SnapshotChunks(name, paths...)
}
