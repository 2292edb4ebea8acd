// Package metrics provides the precision/recall bookkeeping used by the
// experiment harness to reproduce Table 7, Table 8 and Figures 5-6.
package metrics

import (
	"fmt"
	"strings"
)

// PR is a precision/recall pair.
type PR struct {
	Precision float64
	Recall    float64
}

// F1 returns the harmonic mean.
func (m PR) F1() float64 {
	if m.Precision+m.Recall == 0 {
		return 0
	}
	return 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
}

// String renders like "P=78.0% R=93.0%".
func (m PR) String() string {
	return fmt.Sprintf("P=%.1f%% R=%.1f%%", 100*m.Precision, 100*m.Recall)
}

// SetPR scores a discovered set against a ground-truth set of string keys
// (e.g. embedded dependencies "[zip] -> [city]").
func SetPR(discovered, truth []string) PR {
	truthSet := make(map[string]bool, len(truth))
	for _, s := range truth {
		truthSet[s] = true
	}
	tp := 0
	seen := map[string]bool{}
	for _, s := range discovered {
		if seen[s] {
			continue
		}
		seen[s] = true
		if truthSet[s] {
			tp++
		}
	}
	var out PR
	if len(seen) > 0 {
		out.Precision = float64(tp) / float64(len(seen))
	} else if len(truth) == 0 {
		out.Precision = 1
	}
	if len(truth) > 0 {
		out.Recall = float64(tp) / float64(len(truth))
	} else {
		out.Recall = 1
	}
	return out
}

// Mean averages a slice of values.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pct renders a ratio as a percentage string, with "-" for NaN-ish inputs.
func Pct(x float64) string {
	if x < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// Table is a simple fixed-width text table for harness output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
