package pfd

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// ReportFormat is the value of the "format" discriminator field in the
// Report JSON envelope.
const ReportFormat = "pfd-report"

// ReportVersion is the Report JSON schema version this build writes.
// The version policy mirrors the Ruleset JSON envelope: readers accept
// every version from 1 up to ReportVersion and reject newer ones;
// unknown fields are ignored, so backward-compatible additions do not
// bump the version — only changes that alter the meaning of existing
// fields do.
const ReportVersion = 1

// Report is the versioned machine-readable validation report: the one
// contract spoken by `pfdstream -json`, by every read endpoint of the
// pfdserved HTTP API, and by anything that consumes either. It
// summarizes a validation run (or, for a long-lived service tenant,
// the run so far) and carries the retained live findings.
//
// Producers build it with NewReport (which stamps the format/version
// envelope) and normalize with Sort; consumers decode with
// ParseReport, which enforces the envelope.
type Report struct {
	// Format discriminates the envelope; always ReportFormat.
	Format string `json:"format"`
	// Version is the schema version the producer wrote.
	Version int `json:"version"`
	// Name identifies what was validated: the ruleset name for the
	// CLI, the tenant name for the service.
	Name string `json:"name,omitempty"`

	// Rows is how many tuples were validated, warmup included.
	Rows int `json:"rows"`
	// WarmRows is how many tuples a trusted warmup reference
	// contributed (0 without warmup).
	WarmRows int `json:"warm_rows"`
	// LiveRows is how many live (post-warmup) tuples were validated.
	LiveRows int `json:"live_rows"`
	// Accepted is how many tuples the request that produced this
	// report ingested — set on pfdserved ingest responses, where a
	// request is one slice of the tenant's stream; 0 elsewhere.
	Accepted int `json:"accepted,omitempty"`

	// LiveViolations is the exact total of violations attributed to
	// live tuples. It can exceed len(Violations) when the producer
	// retains findings in a bounded buffer (see Violations).
	LiveViolations int `json:"live_violations"`
	// RetroSignals counts retroactive findings: a majority forming
	// after an earlier suspect tuple. They re-fire per majority-side
	// tuple and may stem from delta-tolerated dirt in the reference,
	// so they are tallied rather than listed.
	RetroSignals int64 `json:"retro_signals"`

	// ElapsedMS is the live-phase wall time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// TuplesPerSec is LiveRows over the live-phase wall time.
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// Violations are the retained live findings. The CLI retains all
	// of them; a long-lived service retains the most recent
	// min(buffer, LiveViolations) — LiveViolations is always exact.
	Violations []ReportFinding `json:"violations"`
}

// ReportFinding is one live violation in a Report, addressed by the
// live row number (warmup offset removed).
type ReportFinding struct {
	Row      int    `json:"row"`
	Column   string `json:"column"`
	Expected string `json:"expected,omitempty"`
	PFD      string `json:"pfd"`
}

// NewReport returns a Report with the format/version envelope stamped
// and a non-nil (empty) findings slice, so it marshals as a complete
// document before any field is filled in.
func NewReport(name string) *Report {
	return &Report{
		Format:     ReportFormat,
		Version:    ReportVersion,
		Name:       name,
		Violations: []ReportFinding{},
	}
}

// FindingOf converts a live StreamViolation to a ReportFinding,
// shifting the engine row id down by rowOffset (the warmup row count
// for CLI runs; 0 when rows are already live-numbered).
func FindingOf(v StreamViolation, rowOffset int) ReportFinding {
	return ReportFinding{
		Row:      v.Cell.Row - rowOffset,
		Column:   v.Cell.Col,
		Expected: v.Expected,
		PFD:      v.PFD.Embedded(),
	}
}

// Sort orders the findings by (row, column, PFD, expected), the
// deterministic order shared by every producer — handlers collect
// findings in the order the engine folds them, which need not be this
// one.
func (r *Report) Sort() {
	sort.Slice(r.Violations, func(i, j int) bool {
		a, b := r.Violations[i], r.Violations[j]
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.PFD != b.PFD {
			return a.PFD < b.PFD
		}
		return a.Expected < b.Expected
	})
}

// SetTiming fills the timing fields from a live-phase duration:
// ElapsedMS, and TuplesPerSec over LiveRows. A non-positive duration
// zeroes both (an idle service tenant has no live phase to rate).
func (r *Report) SetTiming(elapsed time.Duration) {
	if elapsed <= 0 {
		r.ElapsedMS, r.TuplesPerSec = 0, 0
		return
	}
	r.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	r.TuplesPerSec = float64(r.LiveRows) / elapsed.Seconds()
}

// ParseReport decodes a Report, enforcing the envelope: the format
// discriminator must match and the version must be between 1 and
// ReportVersion. Unknown fields are ignored per the version policy.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("pfd: report JSON: %w", err)
	}
	if r.Format != ReportFormat {
		return nil, fmt.Errorf("pfd: report JSON: format %q, want %q", r.Format, ReportFormat)
	}
	if r.Version < 1 || r.Version > ReportVersion {
		return nil, fmt.Errorf("pfd: report JSON: unsupported version %d (this build reads up to v%d)", r.Version, ReportVersion)
	}
	return &r, nil
}
