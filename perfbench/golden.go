package main

import (
	_ "embed"
	"encoding/json"
	"os"
	"sort"
)

// goldenJSON pins batch-paper's per-table outputs for the inputs the
// default seed draws (see -pin). Entries are keyed by the input CSV's
// digest, so the check applies exactly when a run's input is a pinned
// one and the seed itself stays out of it.
//
//go:embed golden/batch-paper.json
var goldenJSON []byte

// checkGolden compares each table whose input is pinned against its
// pinned ruleset, findings and repaired-table digests.
func checkGolden(got []tableDigest, c *checks) {
	var pinned []tableDigest
	if err := json.Unmarshal(goldenJSON, &pinned); err != nil {
		c.expect(false, "golden file: %v", err)
		return
	}
	byInput := map[string]tableDigest{}
	for _, p := range pinned {
		byInput[p.Input] = p
	}
	for _, g := range got {
		if want, ok := byInput[g.Input]; ok {
			c.expect(g == want, "%s: output differs from the pinned digests (ruleset %v, findings %v, repaired %v)",
				g.ID, g.Ruleset == want.Ruleset, g.Findings == want.Findings, g.Repaired == want.Repaired)
		}
	}
}

// pinGolden merges a run's digests into the golden file at path.
func pinGolden(path string, got []tableDigest) error {
	var pinned []tableDigest
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pinned); err != nil {
			return err
		}
	}
	byInput := map[string]tableDigest{}
	for _, p := range append(pinned, got...) {
		byInput[p.Input] = p
	}
	out := make([]tableDigest, 0, len(byInput))
	for _, p := range byInput {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Input < out[j].Input })
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
