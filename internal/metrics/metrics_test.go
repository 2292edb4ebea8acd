package metrics

import (
	"strings"
	"testing"
)

func TestSetPR(t *testing.T) {
	pr := SetPR([]string{"a", "b", "c"}, []string{"a", "b", "d", "e"})
	if pr.Precision != 2.0/3.0 {
		t.Errorf("P = %f", pr.Precision)
	}
	if pr.Recall != 0.5 {
		t.Errorf("R = %f", pr.Recall)
	}
	// Duplicates in the discovered set count once.
	pr = SetPR([]string{"a", "a"}, []string{"a"})
	if pr.Precision != 1 || pr.Recall != 1 {
		t.Errorf("dup PR = %+v", pr)
	}
	// Empty discovered, non-empty truth.
	pr = SetPR(nil, []string{"a"})
	if pr.Precision != 0 || pr.Recall != 0 {
		t.Errorf("empty PR = %+v", pr)
	}
	// Both empty: vacuous perfection.
	pr = SetPR(nil, nil)
	if pr.Precision != 1 || pr.Recall != 1 {
		t.Errorf("vacuous PR = %+v", pr)
	}
}

func TestF1(t *testing.T) {
	if got := (PR{Precision: 1, Recall: 1}).F1(); got != 1 {
		t.Errorf("F1 = %f", got)
	}
	if got := (PR{}).F1(); got != 0 {
		t.Errorf("zero F1 = %f", got)
	}
	if got := (PR{Precision: 0.5, Recall: 1}).F1(); got < 0.66 || got > 0.67 {
		t.Errorf("F1 = %f", got)
	}
}

func TestMeanAndPct(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean of empty must be 0")
	}
	if Pct(0.5) != "50.0%" {
		t.Errorf("Pct = %q", Pct(0.5))
	}
	if Pct(-1) != "-" {
		t.Errorf("Pct(-1) = %q", Pct(-1))
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"id", "value"}}
	tb.Add("T1", "100")
	tb.Add("T15", "7")
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "T1 ") {
		t.Errorf("alignment wrong: %q", lines[1])
	}
}

func TestPRString(t *testing.T) {
	got := (PR{Precision: 0.78, Recall: 0.93}).String()
	if got != "P=78.0% R=93.0%" {
		t.Errorf("String = %q", got)
	}
}
