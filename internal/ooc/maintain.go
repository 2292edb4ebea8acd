package ooc

import (
	"sync"

	"pfd/internal/discovery"
	"pfd/internal/pfd"
)

// Maintainer folds new tuples into per-rule support and violation
// counters and re-ranks or demotes discovered PFDs without re-mining.
// It is the incremental half of out-of-core discovery: the confirm pass
// (or a prior Maintainer) seeds the counters, and a streaming
// deployment then feeds ObserveRows with its row counts and
// ObserveViolation from its engine's violation callback, so violations
// are judged with the engine's cross-batch group state. All methods
// are safe for concurrent use.
type Maintainer struct {
	mu     sync.Mutex
	params discovery.Params
	rules  []*maintained
	byPFD  map[*pfd.PFD]*maintained
	byKey  map[string]*maintained
	rows   int64
}

type maintained struct {
	p          *pfd.PFD
	embedded   string
	support    int64
	violations int64
	demoted    bool
}

// NewMaintainer tracks the given rules with zeroed counters. params
// supplies the demotion threshold (Delta, with MinSupport as slack);
// zero values are normalized to the discovery defaults.
func NewMaintainer(pfds []*pfd.PFD, params discovery.Params) *Maintainer {
	m := &Maintainer{
		params: params.Normalize(),
		byPFD:  make(map[*pfd.PFD]*maintained, len(pfds)),
		byKey:  make(map[string]*maintained, len(pfds)),
	}
	for _, p := range pfds {
		r := &maintained{p: p, embedded: p.Embedded()}
		m.rules = append(m.rules, r)
		m.byPFD[p] = r
		m.byKey[r.embedded] = r
	}
	return m
}

// Seed initializes one rule's counters from prior evidence (the
// confirm pass, or a previous Maintainer's Health). Unknown rules are
// ignored.
func (m *Maintainer) Seed(h RuleHealth) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.byKey[h.Embedded]; ok {
		r.support = h.Support
		r.violations = h.Violations
		r.demoted = !h.Active
	}
}

// ObserveRows accounts rows ingested through a path that reports
// violations separately (e.g. a serving engine feeding
// ObserveViolation).
func (m *Maintainer) ObserveRows(n int) {
	m.mu.Lock()
	m.rows += int64(n)
	m.mu.Unlock()
}

// ObserveViolation charges one streaming violation (and one unit of
// support — the violating tuple matched the rule's LHS) to the rule.
// Rules are matched by pointer first, then by embedded FD, so findings
// from an engine loaded with a deserialized copy of the ruleset still
// land.
func (m *Maintainer) ObserveViolation(p *pfd.PFD) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.byPFD[p]
	if !ok {
		if r, ok = m.byKey[p.Embedded()]; !ok {
			return
		}
	}
	r.violations++
	r.support++
	m.reassess(r)
}

// reassess demotes a rule whose violations exceed the δ-allowance of
// its evidence (support when present, observed rows otherwise) plus a
// MinSupport slack, and restores it when the evidence recovers —
// demotion is a ranking state, not a deletion. Caller holds m.mu.
func (m *Maintainer) reassess(r *maintained) {
	evidence := r.support
	if evidence == 0 {
		evidence = m.rows
	}
	allowed := int64(float64(evidence)*m.params.Delta) + int64(m.params.MinSupport)
	r.demoted = r.violations > allowed
}

// Health returns every rule's counters, ranked most-trustworthy first
// (confidence desc, support desc, embedded FD), demoted rules last.
func (m *Maintainer) Health() []RuleHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RuleHealth, len(m.rules))
	for i, r := range m.rules {
		evidence := r.support
		if evidence == 0 {
			evidence = 1
		}
		out[i] = RuleHealth{
			Embedded:   r.embedded,
			Support:    r.support,
			Violations: r.violations,
			Confidence: 1 - float64(r.violations)/float64(evidence),
			Active:     !r.demoted,
		}
	}
	// Active rules first, each group health-ranked.
	var active, demoted []RuleHealth
	for _, h := range out {
		if h.Active {
			active = append(active, h)
		} else {
			demoted = append(demoted, h)
		}
	}
	rankHealth(active)
	rankHealth(demoted)
	return append(active, demoted...)
}

// Active returns the rules not currently demoted, in tracked order.
func (m *Maintainer) Active() []*pfd.PFD {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*pfd.PFD
	for _, r := range m.rules {
		if !r.demoted {
			out = append(out, r.p)
		}
	}
	return out
}

// Rules returns every tracked rule, in tracked order.
func (m *Maintainer) Rules() []*pfd.PFD {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*pfd.PFD, len(m.rules))
	for i, r := range m.rules {
		out[i] = r.p
	}
	return out
}
