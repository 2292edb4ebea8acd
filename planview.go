package pfd

import "pfd/internal/plan"

// PlanDescription is the explainable view of a ruleset's compiled
// shared-evaluation plan: how many distinct tableau cells and shared
// LHS groups the rules collapse to, and how long construction took.
// It is what `pfd detect -plan` prints and the service's
// GET /v1/tenants/{tenant}/plan returns.
type PlanDescription = plan.Description

// PlanGroup describes one shared LHS group of a PlanDescription.
type PlanGroup = plan.GroupInfo

// Plan compiles the ruleset's shared-evaluation plan — without
// executing it — and describes the factoring: rules with identical
// tableau cells and LHS signatures share evaluation work when the
// ruleset is validated or detected with. Construction is a pure pass
// over the tableaux (microseconds; no table, no statistics), so this
// is cheap to call for inspection. Detect compiles a fresh plan of the
// same shape on every call and keeps nothing once it returns; this
// entry point exists for visibility, not as a required step.
func (rs *Ruleset) Plan() PlanDescription {
	return plan.New(rs.PFDs).Describe()
}
