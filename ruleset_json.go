package pfd

import (
	"encoding/json"
	"fmt"

	"pfd/internal/pfd"
)

// RulesetFormat is the value of the "format" discriminator field in
// the JSON codec.
const RulesetFormat = "pfd-ruleset"

// RulesetVersion is the JSON (and text-header) schema version this
// build writes. Version policy: readers accept every version from 1
// up to RulesetVersion and reject newer ones; unknown JSON fields are
// ignored, so backward-compatible additions do not bump the version —
// only changes that alter the meaning of existing fields do.
const RulesetVersion = 1

// rulesetJSON is the on-disk JSON schema (version RulesetVersion).
// Tableau cells are strings in the text cell grammar ('_' wildcard,
// pattern syntax, bare constants), shared with the λ-notation codec.
type rulesetJSON struct {
	Format     string          `json:"format"`
	Version    int             `json:"version"`
	Name       string          `json:"name,omitempty"`
	Provenance *provenanceJSON `json:"provenance,omitempty"`
	Rules      []ruleJSON      `json:"rules"`
}

type provenanceJSON struct {
	Source string      `json:"source,omitempty"`
	Rows   int         `json:"rows,omitempty"`
	Tool   string      `json:"tool,omitempty"`
	Params *paramsJSON `json:"params,omitempty"`
}

type paramsJSON struct {
	MinSupport            int     `json:"min_support,omitempty"`
	Delta                 float64 `json:"delta,omitempty"`
	MinCoverage           float64 `json:"min_coverage,omitempty"`
	MaxLHS                int     `json:"max_lhs,omitempty"`
	MaxGram               int     `json:"max_gram,omitempty"`
	DisableGeneralize     bool    `json:"disable_generalize,omitempty"`
	DisableSubstringPrune bool    `json:"disable_substring_prune,omitempty"`
}

type ruleJSON struct {
	Relation string           `json:"relation"`
	LHS      []string         `json:"lhs"`
	RHS      string           `json:"rhs"`
	Tableau  []tableauRowJSON `json:"tableau"`
}

type tableauRowJSON struct {
	LHS []string `json:"lhs"`
	RHS string   `json:"rhs"`
}

func (rs *Ruleset) toJSON() rulesetJSON {
	out := rulesetJSON{
		Format:  RulesetFormat,
		Version: RulesetVersion,
		Name:    rs.Name,
		Rules:   make([]ruleJSON, 0, len(rs.PFDs)),
	}
	if p := rs.Provenance; p != nil {
		pj := &provenanceJSON{Source: p.Source, Rows: p.Rows, Tool: p.Tool}
		if p.Params != nil {
			pj.Params = &paramsJSON{
				MinSupport:            p.Params.MinSupport,
				Delta:                 p.Params.Delta,
				MinCoverage:           p.Params.MinCoverage,
				MaxLHS:                p.Params.MaxLHS,
				MaxGram:               p.Params.MaxGram,
				DisableGeneralize:     p.Params.DisableGeneralize,
				DisableSubstringPrune: p.Params.DisableSubstringPrune,
			}
		}
		out.Provenance = pj
	}
	for _, p := range rs.PFDs {
		rj := ruleJSON{
			Relation: p.Relation,
			LHS:      p.LHS,
			RHS:      p.RHS,
			Tableau:  make([]tableauRowJSON, 0, len(p.Tableau)),
		}
		for _, row := range p.Tableau {
			cells := make([]string, len(row.LHS))
			for i, c := range row.LHS {
				cells[i] = c.String()
			}
			rj.Tableau = append(rj.Tableau, tableauRowJSON{LHS: cells, RHS: row.RHS.String()})
		}
		out.Rules = append(out.Rules, rj)
	}
	return out
}

// MarshalJSON renders the ruleset in the versioned JSON format
// (schema version RulesetVersion; see DESIGN.md for the schema).
func (rs *Ruleset) MarshalJSON() ([]byte, error) {
	return json.Marshal(rs.toJSON())
}

// marshalIndentJSON is MarshalJSON with human-friendly indentation,
// used by WriteFile for .json artifacts.
func (rs *Ruleset) marshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(rs.toJSON(), "", "  ")
}

// UnmarshalJSON reads the versioned JSON format, accepting schema
// versions 1 through RulesetVersion and ignoring unknown fields.
func (rs *Ruleset) UnmarshalJSON(data []byte) error {
	var in rulesetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return prefixed("pfd: ruleset JSON: ", err)
	}
	if in.Format != RulesetFormat {
		return fmt.Errorf("pfd: ruleset JSON: format %q, want %q", in.Format, RulesetFormat)
	}
	if in.Version < 1 || in.Version > RulesetVersion {
		return fmt.Errorf("pfd: ruleset JSON: unsupported version %d (this build reads up to v%d)", in.Version, RulesetVersion)
	}
	out := Ruleset{Name: in.Name}
	if pj := in.Provenance; pj != nil {
		out.Provenance = &Provenance{Source: pj.Source, Rows: pj.Rows, Tool: pj.Tool}
		if pj.Params != nil {
			out.Provenance.Params = &Params{
				MinSupport:            pj.Params.MinSupport,
				Delta:                 pj.Params.Delta,
				MinCoverage:           pj.Params.MinCoverage,
				MaxLHS:                pj.Params.MaxLHS,
				MaxGram:               pj.Params.MaxGram,
				DisableGeneralize:     pj.Params.DisableGeneralize,
				DisableSubstringPrune: pj.Params.DisableSubstringPrune,
			}
		}
	}
	for ri, rj := range in.Rules {
		rows := make([]TableauRow, 0, len(rj.Tableau))
		for ti, tj := range rj.Tableau {
			row := TableauRow{LHS: make([]TableauCell, len(tj.LHS))}
			for ci, src := range tj.LHS {
				c, err := pfd.ParseCell(src)
				if err != nil {
					return prefixed(fmt.Sprintf("pfd: ruleset JSON: rule %d tableau row %d cell %d: ", ri, ti, ci), err)
				}
				row.LHS[ci] = c
			}
			c, err := pfd.ParseCell(tj.RHS)
			if err != nil {
				return prefixed(fmt.Sprintf("pfd: ruleset JSON: rule %d tableau row %d RHS: ", ri, ti), err)
			}
			row.RHS = c
			rows = append(rows, row)
		}
		p, err := pfd.New(rj.Relation, rj.LHS, rj.RHS, rows...)
		if err != nil {
			return prefixed(fmt.Sprintf("pfd: ruleset JSON: rule %d: ", ri), err)
		}
		out.PFDs = append(out.PFDs, p)
	}
	*rs = out
	return nil
}
