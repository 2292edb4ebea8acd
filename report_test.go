package pfd

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pfd/internal/relation"
)

// TestReportEnvelopeRoundTrip pins that a produced report decodes to
// itself through ParseReport.
func TestReportEnvelopeRoundTrip(t *testing.T) {
	r := NewReport("zips")
	r.Rows, r.WarmRows, r.LiveRows = 12, 4, 8
	r.LiveViolations, r.RetroSignals = 2, 3
	r.SetTiming(250 * time.Millisecond)
	r.Violations = append(r.Violations,
		ReportFinding{Row: 7, Column: "city", Expected: "Chicago", PFD: "[zip] -> [city]"},
		ReportFinding{Row: 3, Column: "city", PFD: "[zip] -> [city]"},
	)
	r.Sort()
	if r.Violations[0].Row != 3 {
		t.Fatalf("Sort: first finding row = %d, want 3", r.Violations[0].Row)
	}

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != ReportFormat || got.Version != ReportVersion {
		t.Errorf("envelope = %q v%d", got.Format, got.Version)
	}
	if got.Rows != 12 || got.LiveRows != 8 || len(got.Violations) != 2 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.ElapsedMS != 250 || got.TuplesPerSec != 32 {
		t.Errorf("timing = %vms %v tps, want 250ms 32tps", got.ElapsedMS, got.TuplesPerSec)
	}
}

// TestReportVersionPolicy: wrong format and future versions are
// rejected with telling messages; past versions and unknown fields are
// accepted.
func TestReportVersionPolicy(t *testing.T) {
	if _, err := ParseReport([]byte(`{"format":"not-a-report","version":1}`)); err == nil {
		t.Error("foreign format accepted")
	}
	if _, err := ParseReport([]byte(`{"format":"pfd-report","version":99}`)); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("future version: err = %v, want unsupported-version", err)
	}
	r, err := ParseReport([]byte(`{"format":"pfd-report","version":1,"rows":5,"some_future_field":true}`))
	if err != nil {
		t.Fatalf("unknown field rejected: %v", err)
	}
	if r.Rows != 5 {
		t.Errorf("rows = %d, want 5", r.Rows)
	}
	if _, err := ParseReport([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestFindingOf checks the violation conversion and warm-row shift.
func TestFindingOf(t *testing.T) {
	p := MustParsePFD(`Zip([zip = (\D{3})\D{2}] -> [city = _])`)
	v := StreamViolation{
		PFD:      p,
		Cell:     relation.Cell{Row: 15, Col: "city"},
		Expected: "Chicago",
		NewTuple: true,
	}
	f := FindingOf(v, 12)
	if f.Row != 3 || f.Column != "city" || f.Expected != "Chicago" {
		t.Errorf("finding = %+v", f)
	}
	if f.PFD != p.Embedded() {
		t.Errorf("PFD = %q, want %q", f.PFD, p.Embedded())
	}
}
