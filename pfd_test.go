package pfd_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pfd"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	// The paper's Table 2 scenario through the public API only.
	tb := pfd.NewTable("Zip", "zip", "city")
	zips := []string{"90001", "90002", "90003", "90005", "90011", "90012"}
	for _, z := range zips {
		tb.Append(z, "Los Angeles")
	}
	chi := []string{"60601", "60602", "60603", "60604", "60605", "60607"}
	for _, z := range chi {
		tb.Append(z, "Chicago")
	}
	tb.Append("90004", "New York") // the paper's seeded error s4

	// δ must admit one dirty tuple among the seven 900-prefix rows
	// (1/7 ≈ 14.3%), so 15% here; the paper's 5% presumes larger groups.
	ctx := context.Background()
	disc, err := pfd.Discover(ctx, pfd.FromTable(tb),
		pfd.WithParams(pfd.Params{MinSupport: 5, Delta: 0.15, MinCoverage: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(disc.Dependencies()) == 0 {
		t.Fatal("nothing discovered")
	}
	det, err := pfd.Detect(ctx, pfd.FromTable(tb), disc.PFDs())
	if err != nil {
		t.Fatal(err)
	}
	findings := det.Findings()
	var hit bool
	for _, f := range findings {
		if f.Cell == (pfd.Cell{Row: 12, Col: "city"}) && f.Proposed == "Los Angeles" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("seeded error not found+repaired; findings = %+v", findings)
	}
	fixed, n := pfd.Repair(tb, findings)
	if n < 1 || fixed.Value(12, "city") != "Los Angeles" {
		t.Error("repair failed")
	}
}

func TestManualPFDConstruction(t *testing.T) {
	p, err := pfd.NewPFD("Name", []string{"name"}, "gender", pfd.TableauRow{
		LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(Susan\ )\A*`))},
		RHS: pfd.Pat(pfd.ConstantPattern("F")),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := pfd.NewTable("Name", "name", "gender")
	tb.Append("Susan Boyle", "M")
	vs := p.Violations(tb)
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestPatternHelpers(t *testing.T) {
	big := pfd.MustParsePattern(`\D*`)
	small := pfd.MustParsePattern(`\D{5}`)
	if !pfd.LangContains(big, small) || pfd.LangContains(small, big) {
		t.Error("LangContains wrong")
	}
	p := pfd.GeneralizeStrings([]string{"90001", "10458"})
	if p == nil || !p.Match("33109") {
		t.Error("GeneralizeStrings wrong")
	}
	if !pfd.Restricts(pfd.MustParsePattern(`(\D{5})`), pfd.MustParsePattern(`(\D{3})\D{2}`)) {
		t.Error("Restricts wrong")
	}
}

func TestInferenceAPI(t *testing.T) {
	john := pfd.NewRule("Name").
		WithLHS("name", pfd.Pat(pfd.MustParsePattern(`(John\ )\A*`))).
		WithRHS("gender", pfd.Pat(pfd.ConstantPattern("M")))
	flag := pfd.NewRule("Name").
		WithLHS("gender", pfd.Pat(pfd.ConstantPattern("M"))).
		WithRHS("flag", pfd.Pat(pfd.ConstantPattern("1")))
	goal := pfd.NewRule("Name").
		WithLHS("name", pfd.Pat(pfd.MustParsePattern(`(John\ )\A*`))).
		WithRHS("flag", pfd.Pat(pfd.ConstantPattern("1")))
	if !pfd.Implies([]*pfd.Rule{john, flag}, goal) {
		t.Error("transitive implication must hold through the public API")
	}
	if _, ok := pfd.Consistent([]*pfd.Rule{john, flag}); !ok {
		t.Error("rule set must be consistent")
	}
}

func TestReadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("zip,city\n90001,Los Angeles\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tb, err := pfd.ReadTable(ctx, pfd.FromCSVFile("Zip", path))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 || tb.Value(0, "city") != "Los Angeles" {
		t.Error("CSV load wrong")
	}
	missing := filepath.Join(dir, "missing.csv")
	_, err = pfd.ReadTable(ctx, pfd.FromCSVFile("x", missing))
	if err == nil {
		t.Fatal("missing file must error")
	}
	// The error must name the table and the file path (it is a
	// *ParseError from the shared ingestion layer).
	var pe *pfd.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *pfd.ParseError", err, err)
	}
	if !strings.Contains(err.Error(), "x") || !strings.Contains(err.Error(), missing) {
		t.Errorf("error %q must mention the table name and path", err)
	}
}
