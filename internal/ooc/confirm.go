package ooc

import (
	"context"
	"sort"

	"pfd/internal/discovery"
	"pfd/internal/kernel"
	"pfd/internal/pfd"
	"pfd/internal/stream"
)

// RuleHealth is one discovered rule's exact counters from a full
// streaming pass (or from incremental maintenance): how many rows its
// tableau covers, how many streaming violations the group-consensus
// checker raised against it, and the resulting confidence.
type RuleHealth struct {
	Embedded   string  `json:"embedded"`
	Support    int64   `json:"support"`
	Violations int64   `json:"violations"`
	Confidence float64 `json:"confidence"`
	// Active is false when a Maintainer has demoted the rule; always
	// true straight out of discovery.
	Active bool `json:"active"`
}

// confirm replays every chunk through the stream engine with
// the discovered rules loaded, counting per-rule streaming violations,
// and computes each rule's exact coverage with the bitset kernels —
// per chunk, so no full-table materialization. It annotates only: the
// rule set is already exact, this pass attaches the evidence the
// Maintainer seeds from.
func (d *driver) confirm(ctx context.Context, deps []*discovery.Dependency) ([]RuleHealth, int, error) {
	if len(deps) == 0 {
		return nil, 0, nil
	}
	pfds := make([]*pfd.PFD, len(deps))
	idx := make(map[*pfd.PFD]int, len(deps))
	for i, dep := range deps {
		pfds[i] = dep.PFD
		idx[dep.PFD] = i
	}
	viol := make([]int64, len(deps)) // the engine never overlaps handler calls
	eng := stream.NewContext(ctx, pfds, stream.Options{
		DiscardViolations: true,
		OnViolation: func(v pfd.StreamViolation) {
			if v.NewTuple {
				viol[idx[v.PFD]]++
			}
		},
	})
	support := make([]int64, len(deps))
	for _, ref := range d.cs.chunks {
		if err := ctx.Err(); err != nil {
			eng.Close()
			return nil, 0, err
		}
		t, err := d.cs.load(ref)
		if err != nil {
			eng.Close()
			return nil, 0, err
		}
		if err := eng.SubmitTable(t); err != nil {
			eng.Close()
			return nil, 0, err
		}
		for i, p := range pfds {
			support[i] += int64(kernel.PopcountSum(p.LHSMatchBitmap(t)))
		}
	}
	rep := eng.Close()
	health := make([]RuleHealth, len(deps))
	for i, dep := range deps {
		v := viol[i]
		evidence := support[i]
		if evidence == 0 {
			evidence = 1
		}
		health[i] = RuleHealth{
			Embedded:   dep.Embedded(),
			Support:    support[i],
			Violations: v,
			Confidence: 1 - float64(v)/float64(evidence),
			Active:     true,
		}
	}
	rankHealth(health)
	return health, rep.Rows, nil
}

// rankHealth orders rules most-trustworthy first: confidence
// descending, then support descending, then embedded FD.
func rankHealth(health []RuleHealth) {
	sort.Slice(health, func(i, j int) bool {
		a, b := health[i], health[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return a.Embedded < b.Embedded
	})
}
