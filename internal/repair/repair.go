// Package repair implements the error-detection and explainable-repair
// workflow of Section 5.3: validated PFDs are applied to a table, each
// violation pinpoints an erroneous cell, and — because PFD semantics pin
// the expected RHS — every detection comes with a proposed fix that can be
// explained by the violated constraint (the paper's "automatic and
// explainable repairs", §4.5).
package repair

import (
	"context"
	"sort"

	"pfd/internal/pfd"
	"pfd/internal/plan"
	"pfd/internal/relation"
)

// A Finding is one detected cell error with its proposed repair.
type Finding struct {
	Cell relation.Cell
	// Observed is the current (suspect) value.
	Observed string
	// Proposed is the repair ("" when the PFD only pins the constrained
	// span, not the full value).
	Proposed string
	// Expected is the consensus constrained span the cell deviates from.
	Expected string
	// By is the PFD that fired, for explainability.
	By *pfd.PFD
	// TableauRow indexes the violated tableau row of By.
	TableauRow int
}

// Detect applies every PFD to the table and returns one finding per
// distinct erroneous cell (multiple PFDs or tableau rows flagging the same
// cell are deduplicated, keeping the finding with a concrete repair when
// one exists). Violations without a consensus (tied groups) are skipped:
// with no majority there is no defensible repair, matching the paper's
// requirement of a predefined support for the PFD to apply.
func Detect(t *relation.Table, pfds []*pfd.PFD) []Finding {
	fs, _ := DetectContextOptions(context.Background(), t, pfds, Options{})
	return fs
}

// Options tunes DetectContextOptions.
type Options struct {
	// Progress, when non-nil, is invoked once per PFD, in pfds order,
	// with the number done and the total: after the planner's run, or
	// after each PFD's scan under NoPlanner.
	Progress func(done, total int)
	// NoPlanner evaluates each PFD on its own with (*pfd.PFD).Violations,
	// one after another, bypassing the shared-evaluation planner — the
	// differential baseline for the planned path.
	NoPlanner bool
}

// DetectContextOptions is Detect with cancellation and options: the
// context is observed between the planner's LHS groups. On
// cancellation it returns nil findings and ctx.Err() — partial
// detection output is never useful, because the dedup across PFDs has
// not run to completion.
//
// Detection runs through the shared-evaluation planner (internal/plan)
// at any rule count, compiled for this call and dropped when it
// returns: identical tableau cells across rules are evaluated once,
// shared LHS groups are gathered once and fanned out to every member
// rule, and provably zero-match rules are skipped. The planner is
// pinned byte-identical to independent evaluation (its per-rule
// violation slices are exactly what each PFD's own Violations
// returns), so the dedup fold below sees the same input under
// NoPlanner, which observes the context between PFDs instead.
//
// Every column the rules name is resolved first, so a rule naming a
// column the table lacks fails both paths alike with a
// *pfd.MissingColumnError, whatever its tableau.
func DetectContextOptions(ctx context.Context, t *relation.Table, pfds []*pfd.PFD, opts Options) ([]Finding, error) {
	for _, rc := range pfd.RequiredColumnRefs(pfds) {
		if t.Col(rc.Column) < 0 {
			return nil, &pfd.MissingColumnError{Column: rc.Column, PFD: rc.PFD}
		}
	}
	var violations [][]pfd.Violation
	if opts.NoPlanner {
		violations = make([][]pfd.Violation, len(pfds))
		for pi, p := range pfds {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			violations[pi] = p.Violations(t)
			if opts.Progress != nil {
				opts.Progress(pi+1, len(pfds))
			}
		}
	} else {
		vs, err := plan.New(pfds).ViolationsContext(ctx, t)
		if err != nil {
			return nil, err
		}
		violations = vs
		if opts.Progress != nil {
			for pi := range pfds {
				opts.Progress(pi+1, len(pfds))
			}
		}
	}
	return foldFindings(t, pfds, violations), nil
}

// foldFindings is the dedup fold, strictly in pfds order — the
// order-sensitive step that makes the findings independent of how the
// violations were scheduled.
func foldFindings(t *relation.Table, pfds []*pfd.PFD, violations [][]pfd.Violation) []Finding {
	byCell := map[relation.Cell]Finding{}
	for pi, p := range pfds {
		for _, v := range violations[pi] {
			if !v.HasConsensus {
				continue
			}
			f := Finding{
				Cell:       v.ErrorCell,
				Observed:   t.Value(v.ErrorCell.Row, v.ErrorCell.Col),
				Expected:   v.Expected,
				By:         p,
				TableauRow: v.TableauRow,
			}
			f.Proposed = proposeRepair(t, p, v)
			if prev, ok := byCell[f.Cell]; ok && (prev.Proposed != "" || f.Proposed == "") {
				continue
			}
			byCell[f.Cell] = f
		}
	}
	out := make([]Finding, 0, len(byCell))
	for _, f := range byCell {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell.Row != out[j].Cell.Row {
			return out[i].Cell.Row < out[j].Cell.Row
		}
		return out[i].Cell.Col < out[j].Cell.Col
	})
	return out
}

// proposeRepair derives the full replacement value for a violation.
//
//   - If the violated tableau row's RHS cell is a whole-value constant,
//     the repair is that constant (ψ1-style: gender must be F).
//   - Otherwise, when a witness tuple from the consensus group exists and
//     the RHS cell compares whole values (wildcard), the repair copies the
//     witness's value (ψ4-style: city must equal Los Angeles).
//   - Otherwise only the constrained span is pinned and no full-value
//     repair is proposed.
func proposeRepair(t *relation.Table, p *pfd.PFD, v pfd.Violation) string {
	row := p.Tableau[v.TableauRow]
	if c, ok := row.RHS.Constant(); ok && row.RHS.Pattern != nil && row.RHS.Pattern.FullyConstrained() {
		return c
	}
	if v.WitnessRow >= 0 {
		if row.RHS.IsWildcard() {
			return t.Value(v.WitnessRow, p.RHS)
		}
		// Pattern RHS: repair only when the witness's whole value equals
		// the expected span extension... the safe subset: span == value.
		wv := t.Value(v.WitnessRow, p.RHS)
		if span, ok := row.RHS.Span(wv); ok && span == wv {
			return wv
		}
	}
	if v.Expected != "" && v.WitnessRow < 0 && row.RHS.IsWildcard() {
		return v.Expected
	}
	return ""
}

// Apply writes the proposed repairs into a copy of the table and returns
// it along with the number of cells changed. Findings without a proposal
// are left untouched.
func Apply(t *relation.Table, findings []Finding) (*relation.Table, int) {
	out := t.Clone()
	n := 0
	for _, f := range findings {
		if f.Proposed == "" || f.Proposed == f.Observed {
			continue
		}
		out.Set(f.Cell.Row, f.Cell.Col, f.Proposed)
		n++
	}
	return out, n
}

// Score compares findings against ground-truth error cells, returning
// detection precision and recall — the §5.3 measures. truth maps each
// genuinely erroneous cell to its correct value ("" when unknown).
func Score(findings []Finding, truth map[relation.Cell]string) (precision, recall float64, correctRepairs int) {
	if len(findings) == 0 {
		if len(truth) == 0 {
			return 1, 1, 0
		}
		return 0, 0, 0
	}
	tp := 0
	for _, f := range findings {
		want, isErr := truth[f.Cell]
		if !isErr {
			continue
		}
		tp++
		if f.Proposed != "" && f.Proposed == want {
			correctRepairs++
		}
	}
	precision = float64(tp) / float64(len(findings))
	if len(truth) == 0 {
		recall = 1
	} else {
		recall = float64(tp) / float64(len(truth))
	}
	return precision, recall, correctRepairs
}
