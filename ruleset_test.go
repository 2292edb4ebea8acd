package pfd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pfd"
	ipfd "pfd/internal/pfd"
)

// discoveredRuleset mines a small zip/city/state table and returns
// the table plus its packaged artifact.
func discoveredRuleset(t *testing.T) (*pfd.Table, *pfd.Ruleset) {
	t.Helper()
	tbl := table7Workload(t, "T5")
	disc, err := pfd.Discover(context.Background(), pfd.FromTable(tbl))
	if err != nil {
		t.Fatal(err)
	}
	rs := disc.Ruleset()
	if rs.Len() == 0 {
		t.Fatal("discovery produced an empty ruleset")
	}
	return tbl, rs
}

func rulesetStrings(rs *pfd.Ruleset) string {
	var b strings.Builder
	for p := range rs.All() {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDiscoveryRulesetProvenance(t *testing.T) {
	tbl, rs := discoveredRuleset(t)
	if rs.Name != tbl.Name {
		t.Errorf("Name = %q, want %q", rs.Name, tbl.Name)
	}
	p := rs.Provenance
	if p == nil || p.Source != tbl.Name || p.Rows != tbl.NumRows() || p.Tool != "discover" {
		t.Fatalf("provenance = %+v", p)
	}
	if p.Params == nil || p.Params.MinSupport != pfd.DefaultParams().MinSupport {
		t.Fatalf("params not recorded: %+v", p.Params)
	}
}

func TestRulesetTextRoundTrip(t *testing.T) {
	_, rs := discoveredRuleset(t)
	var buf bytes.Buffer
	n, err := rs.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo: n=%d len=%d err=%v", n, buf.Len(), err)
	}
	got, err := pfd.LoadRuleset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rs.Name {
		t.Errorf("Name = %q, want %q", got.Name, rs.Name)
	}
	if got.Provenance == nil || *got.Provenance.Params != *rs.Provenance.Params ||
		got.Provenance.Rows != rs.Provenance.Rows || got.Provenance.Source != rs.Provenance.Source ||
		got.Provenance.Tool != rs.Provenance.Tool {
		t.Errorf("provenance drifted: %+v vs %+v", got.Provenance, rs.Provenance)
	}
	if a, b := rulesetStrings(got), rulesetStrings(rs); a != b {
		t.Fatalf("rules drifted through text codec:\n got:\n%s\nwant:\n%s", a, b)
	}
	for i, p := range got.PFDs {
		if !p.Equal(rs.PFDs[i]) {
			t.Fatalf("PFD %d not structurally equal after round trip", i)
		}
	}
}

func TestRulesetJSONRoundTrip(t *testing.T) {
	_, rs := discoveredRuleset(t)
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope is versioned and self-describing.
	var envelope map[string]any
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope["format"] != pfd.RulesetFormat || envelope["version"] != float64(pfd.RulesetVersion) {
		t.Fatalf("envelope = %v", envelope)
	}
	var got pfd.Ruleset
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if a, b := rulesetStrings(&got), rulesetStrings(rs); a != b {
		t.Fatalf("rules drifted through JSON codec:\n got:\n%s\nwant:\n%s", a, b)
	}
	if got.Provenance == nil || *got.Provenance.Params != *rs.Provenance.Params {
		t.Errorf("provenance params drifted: %+v", got.Provenance)
	}
	// LoadRuleset sniffs JSON content without a file extension.
	sniffed, err := pfd.LoadRuleset(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rulesetStrings(sniffed) != rulesetStrings(rs) {
		t.Fatal("sniffed JSON load drifted")
	}
}

func TestRulesetWriteFileExtensionDispatch(t *testing.T) {
	_, rs := discoveredRuleset(t)
	dir := t.TempDir()
	for _, name := range []string{"rules.pfd", "rules.json"} {
		path := filepath.Join(dir, name)
		if err := rs.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		isJSON := bytes.HasPrefix(bytes.TrimSpace(data), []byte("{"))
		if want := strings.HasSuffix(name, ".json"); isJSON != want {
			t.Fatalf("%s: JSON=%v, want %v", name, isJSON, want)
		}
		got, err := pfd.LoadRulesetFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if rulesetStrings(got) != rulesetStrings(rs) {
			t.Fatalf("%s: reload drifted", name)
		}
	}
}

func TestLoadRulesetRejectsNewerVersions(t *testing.T) {
	futureText := "# pfd-ruleset v99\nR([a = x] -> [b = y])\n"
	if _, err := pfd.LoadRuleset(strings.NewReader(futureText)); err == nil {
		t.Error("text codec accepted a future version")
	}
	futureJSON := `{"format": "pfd-ruleset", "version": 99, "rules": []}`
	if _, err := pfd.LoadRuleset(strings.NewReader(futureJSON)); err == nil {
		t.Error("JSON codec accepted a future version")
	}
	wrongFormat := `{"format": "something-else", "version": 1, "rules": []}`
	if _, err := pfd.LoadRuleset(strings.NewReader(wrongFormat)); err == nil {
		t.Error("JSON codec accepted a foreign format")
	}
}

// TestRulesetJSONErrorOnePrefix pins that a bad JSON ruleset reads
// with one "pfd:" prefix, from the file loader and the reader alike,
// for every layer that adds context: the path, the codec, the rule.
func TestRulesetJSONErrorOnePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	for _, c := range []struct {
		rule, want string
	}{
		{`{"relation": "R", "lhs": [], "rhs": "b", "tableau": []}`, "ruleset JSON: rule 0: empty LHS"},
		{`{"relation": "R", "lhs": ["a"], "rhs": "b", "tableau": [{"lhs": ["(x"], "rhs": "_"}]}`,
			"ruleset JSON: rule 0 tableau row 0 cell 0: "},
	} {
		src := `{"format": "pfd-ruleset", "version": 1, "rules": [` + c.rule + `]}`
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		_, fileErr := pfd.LoadRulesetFile(path)
		_, readErr := pfd.LoadRuleset(strings.NewReader(src))
		for _, got := range []error{fileErr, readErr} {
			if got == nil {
				t.Fatalf("rule %s accepted", c.rule)
			}
			msg := got.Error()
			if strings.Count(msg, "pfd:") != 1 || !strings.HasPrefix(msg, "pfd: ") || !strings.Contains(msg, c.want) {
				t.Errorf("error %q: want one leading \"pfd:\" and %q", msg, c.want)
			}
		}
		if want := "pfd: " + path + ": " + c.want; !strings.HasPrefix(fileErr.Error(), want) {
			t.Errorf("file error %q, want prefix %q", fileErr, want)
		}
	}
}

// TestLoadRulesetRejectsRepeatedAttribute pins that both codecs refuse
// a rule side naming one attribute twice, with the one typed error
// the rule grammar and pfd.New share, instead of keeping or dropping
// one of the two cells.
func TestLoadRulesetRejectsRepeatedAttribute(t *testing.T) {
	text := `R([a = (\D)\D*, a = (9)\D*] -> [c = M])` + "\n"
	jsonSrc := `{"format": "pfd-ruleset", "version": 1, "rules": [{"relation": "R", "lhs": ["a", "a"], "rhs": "c",
		"tableau": [{"lhs": ["(\\D)\\D*", "(9)\\D*"], "rhs": "M"}]}]}`
	for _, src := range []string{text, jsonSrc} {
		_, err := pfd.LoadRuleset(strings.NewReader(src))
		var dup *ipfd.DuplicateAttrError
		if !errors.As(err, &dup) || dup.Attr != "a" || dup.Side != "LHS" {
			t.Errorf("LoadRuleset(%s) error = %v, want a *DuplicateAttrError for LHS attribute a", src, err)
		}
	}
}

func TestLoadRulesetReportsLineNumbers(t *testing.T) {
	src := "# a comment\n\nZip([zip = (900)\\D{2}] -> [city = LA])\nnot a rule\n"
	_, err := pfd.LoadRuleset(strings.NewReader(src))
	var rpe *pfd.RuleParseError
	if !errors.As(err, &rpe) {
		t.Fatalf("err = %v, want *RuleParseError", err)
	}
	if rpe.Line != 4 {
		t.Errorf("Line = %d, want 4", rpe.Line)
	}
	// The file loader adds the path.
	path := filepath.Join(t.TempDir(), "bad.pfd")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = pfd.LoadRulesetFile(path)
	if !errors.As(err, &rpe) || rpe.Path != path || rpe.Line != 4 {
		t.Errorf("file load err = %v", err)
	}
}

func TestRulesetDetectMatchesPackageDetect(t *testing.T) {
	tbl, rs := discoveredRuleset(t)
	ctx := context.Background()
	viaRS, err := rs.Detect(ctx, pfd.FromTable(tbl))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pfd.Detect(ctx, pfd.FromTable(tbl), rs.PFDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRS.Findings()) != len(direct.Findings()) {
		t.Fatalf("findings differ: %d vs %d", len(viaRS.Findings()), len(direct.Findings()))
	}
}

func TestRulesetReasoning(t *testing.T) {
	rs := pfd.NewRuleset("titles",
		pfd.MustParsePFD(`Name([name = (John\ )\A*] -> [gender = M])`),
		pfd.MustParsePFD(`Name([gender = M] -> [title = Mr])`),
	)
	if _, ok := rs.Consistent(); !ok {
		t.Fatal("ruleset must be consistent")
	}
	goal, err := pfd.ParseRule(`Name([name = (John\ )\A*] -> [title = Mr])`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Implies(goal) {
		t.Fatal("transitivity consequence not implied")
	}
	if rs.Prove(goal) == nil {
		t.Fatal("no proof for an implied rule")
	}
}

func TestRulesetMinimalCover(t *testing.T) {
	rs := pfd.NewRuleset("titles",
		pfd.MustParsePFD(`Name([name = (John\ )\A*] -> [gender = M])`),
		pfd.MustParsePFD(`Name([gender = M] -> [title = Mr])`),
		pfd.MustParsePFD(`Name([name = (John\ )\A*] -> [title = Mr])`), // transitive, redundant
	)
	cover, err := rs.MinimalCover()
	if err != nil {
		t.Fatal(err)
	}
	if cover.Len() != 2 {
		t.Fatalf("cover kept %d PFDs, want 2:\n%s", cover.Len(), rulesetStrings(cover))
	}
	if cover.Provenance == nil || cover.Provenance.Tool != "mincover" {
		t.Errorf("cover provenance = %+v", cover.Provenance)
	}
	// The dropped rule is still a consequence.
	goal, _ := pfd.ParseRule(`Name([name = (John\ )\A*] -> [title = Mr])`)
	if !cover.Implies(goal) {
		t.Fatal("cover lost a consequence")
	}
}

// TestRulesetArtifactDetectByteIdentical is the acceptance bar for
// the artifact workflow: on Table 7 workloads, persisting the
// discovered ruleset through either codec and reloading it must
// produce byte-identical detect findings vs. the re-discovery path.
func TestRulesetArtifactDetectByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, id := range []string{"T1", "T5", "T13"} {
		t.Run(id, func(t *testing.T) {
			tbl := table7Workload(t, id)
			disc, err := pfd.Discover(ctx, pfd.FromTable(tbl))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := pfd.Detect(ctx, pfd.FromTable(tbl), disc.PFDs())
			if err != nil {
				t.Fatal(err)
			}
			want := dumpFindings(direct.Findings())

			dir := t.TempDir()
			for _, name := range []string{"rules.pfd", "rules.json"} {
				path := filepath.Join(dir, name)
				if err := disc.Ruleset().WriteFile(path); err != nil {
					t.Fatal(err)
				}
				loaded, err := pfd.LoadRulesetFile(path)
				if err != nil {
					t.Fatal(err)
				}
				det, err := loaded.Detect(ctx, pfd.FromTable(tbl))
				if err != nil {
					t.Fatal(err)
				}
				if got := dumpFindings(det.Findings()); got != want {
					t.Fatalf("%s: findings drifted through the artifact:\n got:\n%s\nwant:\n%s", name, got, want)
				}
			}
		})
	}
}

// TestRulesetValidateMissingColumnTyped pins the typed error contract
// when a ruleset references a column the source does not carry: both
// Validate and the sequential reference Checker it is pinned against
// must surface *MissingColumnError naming the column, not a stringly
// error.
func TestRulesetValidateMissingColumnTyped(t *testing.T) {
	rs := pfd.NewRuleset("strict",
		pfd.MustParsePFD(`Zip([zip = (\D{3})\D{2}] -> [state = _])`),
	)
	in := `{"zip":"90001"}` + "\n" // no "state" key at all
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		run  func() error
	}{
		{"sharded", func() error {
			_, err := rs.Validate(ctx, pfd.FromJSONL("stream", strings.NewReader(in)))
			return err
		}},
		{"sequential", func() error {
			c := ipfd.NewChecker(rs.PFDs)
			for tuple, err := range pfd.FromJSONL("stream", strings.NewReader(in)).Tuples(ctx) {
				if err != nil {
					return err
				}
				if _, err := c.CheckNext(tuple); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			err := mode.run()
			var mce *pfd.MissingColumnError
			if !errors.As(err, &mce) {
				t.Fatalf("err = %v (%T), want *MissingColumnError", err, err)
			}
			if mce.Column != "state" {
				t.Errorf("Column = %q, want state", mce.Column)
			}
		})
	}
}

func TestLoadRulesetLegacyGrammar(t *testing.T) {
	// pfdinfer's historical line format allowed multi-attribute RHS
	// and bare (pattern-less) attributes; the shared loader still
	// accepts both, decomposing to normal form.
	src := `R([zip = (900)\D{2}] -> [city = LA, state = CA])` + "\n" +
		`R([a] -> [b = x])` + "\n"
	rs, err := pfd.LoadRuleset(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 { // multi-RHS line decomposes into two PFDs
		t.Fatalf("loaded %d PFDs, want 3:\n%s", rs.Len(), rulesetStrings(rs))
	}
	if rs.PFDs[0].RHS != "city" || rs.PFDs[1].RHS != "state" || rs.PFDs[2].RHS != "b" {
		t.Fatalf("decomposition order wrong:\n%s", rulesetStrings(rs))
	}
}

func TestLoadRulesetHeaderLookalikeComments(t *testing.T) {
	// '#' comments that merely resemble structured headers must not
	// fail the load; the version marker stays strict.
	src := "# rows: about a thousand\n# params: handwritten note\n" +
		`Zip([zip = (900)\D{2}] -> [city = LA])` + "\n"
	rs, err := pfd.LoadRuleset(strings.NewReader(src))
	if err != nil {
		t.Fatalf("comment lookalikes failed the load: %v", err)
	}
	if rs.Len() != 1 {
		t.Fatalf("loaded %d PFDs, want 1", rs.Len())
	}
	if rs.Provenance != nil && rs.Provenance.Rows != 0 {
		t.Errorf("lookalike comment leaked into provenance: %+v", rs.Provenance)
	}
}

func TestRulesToRulesetInvertsRules(t *testing.T) {
	_, rs := discoveredRuleset(t)
	back, err := pfd.RulesToRuleset(rs.Name, rs.Rules())
	if err != nil {
		t.Fatal(err)
	}
	if rulesetStrings(back) != rulesetStrings(rs) {
		t.Fatalf("Rules -> RulesToRuleset drifted:\n got:\n%s\nwant:\n%s",
			rulesetStrings(back), rulesetStrings(rs))
	}
}

// TestParseRuleReadsRulesetLines pins that rule files and inference
// rules share one λ-notation grammar: for names holding a space, ',',
// '=' or brackets, ParseRule reads a ruleset's own printed line to the
// attributes ParsePFD reads, the ruleset implies that rule, and a
// rule's printed text parses back to the rule.
func TestParseRuleReadsRulesetLines(t *testing.T) {
	for _, name := range []string{"first name", "last,first", "a=b", "[x]", "(y)"} {
		p, err := pfd.NewPFD("People", []string{name}, "gender", pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(John\ )\A*`))},
			RHS: pfd.Pat(pfd.ConstantPattern("M")),
		})
		if err != nil {
			t.Fatal(err)
		}
		line := p.String()
		q, err := pfd.ParsePFD(line)
		if err != nil {
			t.Fatalf("ParsePFD(%q): %v", line, err)
		}
		r, err := pfd.ParseRule(line)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", line, err)
		}
		if _, ok := r.LHS[q.LHS[0]]; !ok || len(r.LHS) != 1 || len(r.RHS) != 1 {
			t.Fatalf("ParseRule(%q) = %s; ParsePFD reads LHS %q", line, r, q.LHS)
		}
		if _, ok := r.RHS[q.RHS]; !ok {
			t.Fatalf("ParseRule(%q) = %s; ParsePFD reads RHS %q", line, r, q.RHS)
		}
		if !pfd.NewRuleset("people", q).Implies(r) {
			t.Fatalf("ruleset %q does not imply its own line", line)
		}
		back, err := pfd.ParseRule(r.String())
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", r.String(), err)
		}
		if !sameCells(back.LHS, r.LHS) || !sameCells(back.RHS, r.RHS) || back.Relation != r.Relation {
			t.Fatalf("ParseRule(r.String()) drifted:\n r    %s\n back %s", r, back)
		}
	}
}

func sameCells(a, b map[string]pfd.TableauCell) bool {
	if len(a) != len(b) {
		return false
	}
	for k, c := range a {
		if d, ok := b[k]; !ok || !c.Equal(d) {
			return false
		}
	}
	return true
}
