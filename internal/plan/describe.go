package plan

import "sort"

// maxGroupDetail caps the per-group listing in Describe so the debug
// view of a thousand-rule tenant stays a readable page; TruncatedGroups
// reports how many were cut, so the cap is never silent.
const maxGroupDetail = 64

// Description is the explainable view of a plan — what the
// GET /v1/tenants/{t}/plan debug endpoint and `pfd detect -plan`
// render. It is derived entirely from the immutable plan structure.
type Description struct {
	Rules         int `json:"rules"`
	TableauRows   int `json:"tableau_rows"`
	DistinctCells int `json:"distinct_cells"`
	Groups        int `json:"groups"`
	// SharedGroups counts groups serving more than one tableau row —
	// the rows where the planner's factoring actually collapses work.
	SharedGroups int     `json:"shared_groups"`
	BuildMicros  float64 `json:"build_micros"`

	GroupDetail     []GroupInfo `json:"group_detail,omitempty"`
	TruncatedGroups int         `json:"truncated_groups,omitempty"`
}

// GroupInfo describes one shared LHS group, largest-membership first.
type GroupInfo struct {
	Columns []string `json:"columns"`
	Cells   []string `json:"cells"`
	Members int      `json:"members"`
	Rules   int      `json:"rules"`
}

// Describe summarizes the plan.
func (p *Plan) Describe() Description {
	d := Description{
		Rules:         len(p.pfds),
		TableauRows:   p.tableauRows,
		DistinctCells: len(p.cells),
		Groups:        len(p.groups),
		BuildMicros:   float64(p.buildTime.Nanoseconds()) / 1e3,
	}
	order := make([]int, len(p.groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(p.groups[order[i]].members) > len(p.groups[order[j]].members)
	})
	for _, gi := range order {
		g := &p.groups[gi]
		if len(g.members) > 1 {
			d.SharedGroups++
		}
		if len(d.GroupDetail) >= maxGroupDetail {
			continue
		}
		info := GroupInfo{Members: len(g.members)}
		for _, ci := range g.lhs {
			info.Columns = append(info.Columns, p.cells[ci].col)
			info.Cells = append(info.Cells, p.cells[ci].cell.String())
		}
		rules := map[int]bool{}
		for _, m := range g.members {
			rules[m.rule] = true
		}
		info.Rules = len(rules)
		d.GroupDetail = append(d.GroupDetail, info)
	}
	d.TruncatedGroups = len(p.groups) - len(d.GroupDetail)
	return d
}
