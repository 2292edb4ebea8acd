package repair

import (
	"context"

	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// HolisticOptions tunes the fixpoint repair loop.
type HolisticOptions struct {
	// MaxRounds bounds the detect-repair iterations (default 5).
	MaxRounds int
}

// HolisticResult reports one fixpoint repair run.
type HolisticResult struct {
	Table    *relation.Table
	Rounds   int
	Repaired int
	// Remaining are the findings still open after the last round
	// (ties, or cells with no proposable repair).
	Remaining []Finding
}

// Holistic repairs a table to fixpoint: detect violations, apply the
// proposed repairs, and repeat until no finding carries a repair or the
// round budget is exhausted. Repairing one cell can expose or resolve
// violations of other PFDs (a zip fix changes the city group it belongs
// to), which a single pass misses; iterating is the standard holistic-
// repair loop, with the paper's explainability preserved because every
// applied fix traces to a violated PFD.
//
// Termination note: each round only rewrites cells toward the current
// consensus of strictly-majority groups. A repair can oscillate only if
// two PFDs propose conflicting values for one cell forever; the
// MaxRounds budget (and the conflict skip below) cuts such cycles.
func Holistic(t *relation.Table, pfds []*pfd.PFD, opt HolisticOptions) HolisticResult {
	res, _ := HolisticContext(context.Background(), t, pfds, opt)
	return res
}

// HolisticContext is Holistic with cancellation: the context is
// observed between detect-repair rounds and, inside each detection,
// between the planner's LHS groups. On cancellation it returns the
// repairs applied so far together with ctx.Err(); the Table field
// holds the partially repaired copy.
func HolisticContext(ctx context.Context, t *relation.Table, pfds []*pfd.PFD, opt HolisticOptions) (HolisticResult, error) {
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 5
	}
	cur := t.Clone()
	res := HolisticResult{}
	prevProposals := map[relation.Cell]string{}
	for round := 0; round < opt.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			res.Table = cur
			return res, err
		}
		findings, err := DetectContextOptions(ctx, cur, pfds, Options{})
		if err != nil {
			res.Table = cur
			return res, err
		}
		applicable := findings[:0:0]
		for _, f := range findings {
			if f.Proposed == "" || f.Proposed == f.Observed {
				continue
			}
			// Conflict/oscillation guard: never rewrite a cell we
			// already rewrote to a different value in an earlier round.
			if prev, ok := prevProposals[f.Cell]; ok && prev != f.Proposed {
				continue
			}
			applicable = append(applicable, f)
		}
		if len(applicable) == 0 {
			res.Remaining = findings
			break
		}
		for _, f := range applicable {
			prevProposals[f.Cell] = f.Proposed
		}
		var n int
		cur, n = Apply(cur, applicable)
		res.Repaired += n
		res.Rounds = round + 1
		res.Remaining = nil
	}
	if res.Remaining == nil {
		remaining, err := DetectContextOptions(ctx, cur, pfds, Options{})
		if err != nil {
			res.Table = cur
			return res, err
		}
		res.Remaining = remaining
	}
	res.Table = cur
	return res, nil
}
