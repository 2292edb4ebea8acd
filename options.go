package pfd

import (
	"pfd/internal/discovery"
	"pfd/internal/stream"
)

// DiscoveryProgress reports discovery progress at lattice-level
// boundaries; see WithDiscoverProgress.
type DiscoveryProgress = discovery.Progress

// A DiscoverOption configures Discover.
type DiscoverOption func(*discoverConfig)

type discoverConfig struct {
	params   Params
	progress func(DiscoveryProgress)
}

func newDiscoverConfig(opts []DiscoverOption) discoverConfig {
	cfg := discoverConfig{params: DefaultParams()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithParams replaces the whole discovery parameter set at once. Field
// options applied after it (WithMinSupport, WithDelta, ...) override
// individual fields.
func WithParams(p Params) DiscoverOption {
	return func(c *discoverConfig) { c.params = p }
}

// WithMinSupport sets K, the minimum number of records containing a
// pattern for it to seed a tableau row.
func WithMinSupport(k int) DiscoverOption {
	return func(c *discoverConfig) { c.params.MinSupport = k }
}

// WithDelta sets δ, the allowed violation ratio.
func WithDelta(delta float64) DiscoverOption {
	return func(c *discoverConfig) { c.params.Delta = delta }
}

// WithMinCoverage sets γ, the minimum fraction of table records a
// dependency's tableau must cover.
func WithMinCoverage(gamma float64) DiscoverOption {
	return func(c *discoverConfig) { c.params.MinCoverage = gamma }
}

// WithMaxLHS bounds the LHS attribute-set size.
func WithMaxLHS(n int) DiscoverOption {
	return func(c *discoverConfig) { c.params.MaxLHS = n }
}

// WithoutGeneralization keeps every dependency in constant form,
// skipping the §4.3 variable-row generalization.
func WithoutGeneralization() DiscoverOption {
	return func(c *discoverConfig) { c.params.DisableGeneralize = true }
}

// WithDiscoverProgress registers a callback invoked after each
// completed lattice level, from the coordinating goroutine (no
// synchronization needed). Canceling the run's context from inside the
// callback stops the walk before the next level — the deterministic
// way to bound a long discovery.
func WithDiscoverProgress(fn func(DiscoveryProgress)) DiscoverOption {
	return func(c *discoverConfig) { c.progress = fn }
}

// A DetectOption configures Detect.
type DetectOption func(*detectConfig)

type detectConfig struct {
	progress func(pfdsDone, pfdsTotal int)
	noPlan   bool
}

func newDetectConfig(opts []DetectOption) detectConfig {
	var cfg detectConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithDetectProgress registers a callback invoked once per PFD, in
// order, with the number done and the total: after the planner's run
// has produced every PFD's violations, or after each PFD's own
// violation pass under WithoutSharedPlan.
func WithDetectProgress(fn func(pfdsDone, pfdsTotal int)) DetectOption {
	return func(c *detectConfig) { c.progress = fn }
}

// WithoutSharedPlan forces independent per-rule evaluation, one PFD
// after another, bypassing the shared-evaluation planner. The planner is pinned
// byte-identical to the independent path, so this only trades speed
// for isolation — the escape hatch when a planner defect is suspected,
// and the baseline the differential suite compares against.
func WithoutSharedPlan() DetectOption {
	return func(c *detectConfig) { c.noPlan = true }
}

// A StreamOption configures Validate and NewStreamEngineContext.
type StreamOption func(*streamConfig)

type streamConfig struct {
	engine   stream.Options
	warm     Source
	progress func(rowsSubmitted int)
}

func newStreamConfig(opts []StreamOption) streamConfig {
	var cfg streamConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithViolationHandler registers a callback invoked as each violation
// is found. It runs in the goroutine that submitted the tuple, while
// the engine lock is held: calls from several producers never overlap,
// and every violation of a tuple has been delivered when its Submit
// returns. It must not call back into the engine, whose lock it holds.
// During a WithWarmup replay the handler is not invoked.
func WithViolationHandler(fn func(StreamViolation)) StreamOption {
	return func(c *streamConfig) { c.engine.OnViolation = fn }
}

// WithoutViolationLog stops the engine from retaining violations for
// the final report (long-running validations consume them through
// WithViolationHandler instead; retained logs otherwise grow with
// every finding for the run's lifetime).
func WithoutViolationLog() StreamOption {
	return func(c *streamConfig) { c.engine.DiscardViolations = true }
}

// WithWarmup folds a trusted reference source into the engine before
// the live source, so group consensus exists before the first live
// tuple. Warm-replay violations are not delivered to the violation
// handler; the warm row count is reported by Validation.WarmRows.
func WithWarmup(ref Source) StreamOption {
	return func(c *streamConfig) { c.warm = ref }
}

// WithValidateProgress registers a callback invoked periodically (every
// few thousand tuples) with the number of live tuples submitted so
// far. It runs on the goroutine driving the source.
func WithValidateProgress(fn func(rowsSubmitted int)) StreamOption {
	return func(c *streamConfig) { c.progress = fn }
}

// A RepairOption configures RepairToFixpoint.
type RepairOption func(*repairConfig)

type repairConfig struct {
	maxRounds int
}

func newRepairConfig(opts []RepairOption) repairConfig {
	var cfg repairConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMaxRounds bounds the detect-repair iterations. <= 0 means the
// default budget.
func WithMaxRounds(n int) RepairOption {
	return func(c *repairConfig) { c.maxRounds = n }
}
