package pfd

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"pfd/internal/inference"
	"pfd/internal/pfd"
)

// A Ruleset is the durable rule artifact of the v2 API: a named
// collection of PFDs with provenance, produced once by discovery (or
// authored by hand) and reused across detection, streaming
// validation, repair, and the Section 3 reasoning tasks. It
// round-trips through two codecs:
//
//   - the paper's λ-notation text format — one PFD per line, '#'
//     comments, the grammar of ParsePFD (WriteTo / LoadRuleset);
//   - a versioned JSON format for tooling (MarshalJSON /
//     UnmarshalJSON, schema version RulesetVersion).
//
// LoadRuleset detects the codec from the content, so one loader
// serves both; DESIGN.md specifies the grammar and the JSON schema
// version policy.
type Ruleset struct {
	// Name identifies the artifact (by convention the source table).
	Name string
	// Provenance records where the rules came from; nil for
	// hand-assembled rulesets.
	Provenance *Provenance
	// PFDs are the rules, in discovery (or file) order.
	PFDs []*PFD
}

// Provenance records how a ruleset was produced, so a loaded artifact
// explains itself: the source it was mined from, how much data backed
// it, and under which parameters.
type Provenance struct {
	// Source names the table or stream the rules were mined from.
	Source string
	// Rows is how many records discovery scanned.
	Rows int
	// Tool identifies the producer ("discover", "mincover", ...).
	Tool string
	// Params are the discovery parameters, nil when not applicable.
	Params *Params
}

// NewRuleset assembles a ruleset from explicit PFDs.
func NewRuleset(name string, pfds ...*PFD) *Ruleset {
	return &Ruleset{Name: name, PFDs: pfds}
}

// Len returns the number of PFDs.
func (rs *Ruleset) Len() int { return len(rs.PFDs) }

// All streams the PFDs.
func (rs *Ruleset) All() iter.Seq[*PFD] { return seqOf(rs.PFDs) }

// Rules flattens the ruleset into single-row inference rules, one per
// tableau row — the form the Section 3 reasoning procedures consume.
func (rs *Ruleset) Rules() []*Rule { return inference.FromPFDs(rs.PFDs) }

// Detect applies the ruleset to a source; see the package-level
// Detect.
func (rs *Ruleset) Detect(ctx context.Context, src Source, opts ...DetectOption) (*Detection, error) {
	return Detect(ctx, src, rs.PFDs, opts...)
}

// Validate checks a source against the ruleset with streaming
// semantics; see the package-level Validate.
func (rs *Ruleset) Validate(ctx context.Context, src Source, opts ...StreamOption) (*Validation, error) {
	return Validate(ctx, src, rs.PFDs, opts...)
}

// RepairToFixpoint repairs a source under the ruleset; see the
// package-level RepairToFixpoint.
func (rs *Ruleset) RepairToFixpoint(ctx context.Context, src Source, opts ...RepairOption) (*RepairResult, error) {
	return RepairToFixpoint(ctx, src, rs.PFDs, opts...)
}

// Consistent decides whether some nonempty instance satisfies every
// rule of the set (Theorem 3), returning a single-tuple witness when
// one exists.
func (rs *Ruleset) Consistent() (map[string]string, bool) {
	return inference.Consistent(rs.Rules())
}

// Implies reports whether the ruleset logically implies psi, via the
// PFD-closure of Figure 7 (sound; see internal/inference for the
// completeness caveat).
func (rs *Ruleset) Implies(psi *Rule) bool { return inference.Implies(rs.Rules(), psi) }

// Prove constructs an axiomatic proof that the ruleset implies psi,
// or nil when the closure cannot derive it.
func (rs *Ruleset) Prove(psi *Rule) *Proof { return inference.Prove(rs.Rules(), psi) }

// MinimalCover returns a new ruleset with the same logical
// consequences and every redundant tableau row dropped (a row implied
// by the remaining rules): Section 3's minimal-cover task as an
// artifact-to-artifact transformation. Provenance is carried over
// with Tool marked "mincover".
func (rs *Ruleset) MinimalCover() (*Ruleset, error) {
	pfds, err := inference.ToPFDs(inference.MinimalCover(rs.Rules()))
	if err != nil {
		return nil, err
	}
	out := &Ruleset{Name: rs.Name, PFDs: pfds}
	if rs.Provenance != nil {
		p := *rs.Provenance
		p.Tool = "mincover"
		out.Provenance = &p
	} else {
		out.Provenance = &Provenance{Tool: "mincover"}
	}
	return out, nil
}

// A RuleParseError reports a malformed rule line in a ruleset file,
// with its 1-based line number and the file path when known. It
// unwraps to the underlying parse error.
type RuleParseError struct {
	Path string
	Line int
	Err  error
}

func (e *RuleParseError) Error() string {
	// The rule parser's own errors carry the package prefix already.
	msg := strings.TrimPrefix(e.Err.Error(), "pfd: ")
	if e.Path != "" {
		return fmt.Sprintf("pfd: %s:%d: %s", e.Path, e.Line, msg)
	}
	return fmt.Sprintf("pfd: rules line %d: %s", e.Line, msg)
}

func (e *RuleParseError) Unwrap() error { return e.Err }

// prefixedError puts context in front of an error that may already
// begin with the package prefix: the message drops err's own "pfd: ",
// so the line carries the prefix once, and it unwraps to err.
type prefixedError struct {
	prefix string
	err    error
}

func prefixed(prefix string, err error) error { return &prefixedError{prefix, err} }

func (e *prefixedError) Error() string {
	return e.prefix + strings.TrimPrefix(e.err.Error(), "pfd: ")
}

func (e *prefixedError) Unwrap() error { return e.err }

// headerPrefix opens every structured text-codec header line.
const headerPrefix = "# pfd-ruleset v"

// WriteTo writes the ruleset in the λ-notation text format: a
// structured comment header (version, name, provenance) followed by
// one PFD per line, each rendered by PFD.String and parseable by
// ParsePFD. It implements io.WriterTo.
func (rs *Ruleset) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s%d\n", headerPrefix, RulesetVersion)
	if rs.Name != "" {
		fmt.Fprintf(&b, "# name: %s\n", rs.Name)
	}
	if p := rs.Provenance; p != nil {
		if p.Source != "" {
			fmt.Fprintf(&b, "# source: %s\n", p.Source)
		}
		if p.Rows > 0 {
			fmt.Fprintf(&b, "# rows: %d\n", p.Rows)
		}
		if p.Tool != "" {
			fmt.Fprintf(&b, "# tool: %s\n", p.Tool)
		}
		if p.Params != nil {
			fmt.Fprintf(&b, "# params: %s\n", formatParams(*p.Params))
		}
	}
	for _, p := range rs.PFDs {
		fmt.Fprintf(&b, "%s\n", p)
	}
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// WriteFile persists the ruleset to path, choosing the codec by
// extension: ".json" writes the versioned JSON format (indented),
// anything else the λ-notation text format. LoadRulesetFile reads
// either back, regardless of extension.
func (rs *Ruleset) WriteFile(path string) error {
	var buf bytes.Buffer
	if strings.EqualFold(filepath.Ext(path), ".json") {
		b, err := rs.marshalIndentJSON()
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	} else if _, err := rs.WriteTo(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadRuleset reads a ruleset from either codec, sniffing the content:
// input whose first non-space byte is '{' is the JSON format,
// everything else the λ-notation text format. Text parse failures are
// *RuleParseError values carrying the 1-based line number.
func LoadRuleset(r io.Reader) (*Ruleset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return loadRuleset(data, "")
}

// LoadRulesetFile is LoadRuleset over a file; errors carry the path.
func LoadRulesetFile(path string) (*Ruleset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadRuleset(data, path)
}

// loadRuleset sniffs the codec and dispatches; path (when known) is
// attached to errors.
func loadRuleset(data []byte, path string) (*Ruleset, error) {
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		rs := new(Ruleset)
		if err := rs.UnmarshalJSON(data); err != nil {
			if path != "" {
				return nil, prefixed("pfd: "+path+": ", err)
			}
			return nil, err
		}
		return rs, nil
	}
	return parseRulesetText(data, path)
}

// parseRulesetText reads the λ-notation codec: '#' lines are comments
// (structured headers recovered when present), every other nonblank
// line one PFD.
func parseRulesetText(data []byte, path string) (*Ruleset, error) {
	rs := new(Ruleset)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "":
		case strings.HasPrefix(text, "#"):
			if err := rs.parseHeader(text); err != nil {
				return nil, &RuleParseError{Path: path, Line: line, Err: err}
			}
		default:
			p, err := pfd.ParsePFD(text)
			if err != nil {
				// A multi-attribute RHS (pfdinfer's historical line
				// format) is not normal form: read the line with the
				// same grammar as an inference rule and decompose it
				// (restriction iv of §4.2).
				if r, rerr := inference.ParseRule(text); rerr == nil {
					if ps, perr := inference.ToPFDs([]*inference.Rule{r}); perr == nil {
						rs.PFDs = append(rs.PFDs, ps...)
						continue
					}
				}
				return nil, &RuleParseError{Path: path, Line: line, Err: err}
			}
			rs.PFDs = append(rs.PFDs, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rs, nil
}

// parseHeader recovers the structured '#' headers WriteTo emits.
// Free-form comments — including ones that merely resemble a header
// but do not parse, like "# rows: about a thousand" — pass through
// untouched: '#' lines never fail a load, except the version marker
// itself, which is this codec's own discriminator and must be honored
// so newer artifacts are not silently misread.
func (rs *Ruleset) parseHeader(text string) error {
	switch {
	case strings.HasPrefix(text, headerPrefix):
		v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(text, headerPrefix)))
		if err != nil {
			return fmt.Errorf("bad ruleset version header %q", text)
		}
		if v < 1 || v > RulesetVersion {
			return fmt.Errorf("unsupported ruleset version %d (this build reads up to v%d)", v, RulesetVersion)
		}
	case strings.HasPrefix(text, "# name:"):
		rs.Name = strings.TrimSpace(strings.TrimPrefix(text, "# name:"))
	case strings.HasPrefix(text, "# source:"):
		rs.provenance().Source = strings.TrimSpace(strings.TrimPrefix(text, "# source:"))
	case strings.HasPrefix(text, "# rows:"):
		if n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(text, "# rows:"))); err == nil {
			rs.provenance().Rows = n
		}
	case strings.HasPrefix(text, "# tool:"):
		rs.provenance().Tool = strings.TrimSpace(strings.TrimPrefix(text, "# tool:"))
	case strings.HasPrefix(text, "# params:"):
		if p, err := parseParams(strings.TrimSpace(strings.TrimPrefix(text, "# params:"))); err == nil {
			rs.provenance().Params = &p
		}
	}
	return nil
}

func (rs *Ruleset) provenance() *Provenance {
	if rs.Provenance == nil {
		rs.Provenance = &Provenance{}
	}
	return rs.Provenance
}

// formatParams renders discovery parameters as "key=value" fields for
// the text header; parseParams inverts it.
func formatParams(p Params) string {
	fields := []string{
		"k=" + strconv.Itoa(p.MinSupport),
		"delta=" + strconv.FormatFloat(p.Delta, 'g', -1, 64),
		"gamma=" + strconv.FormatFloat(p.MinCoverage, 'g', -1, 64),
		"maxlhs=" + strconv.Itoa(p.MaxLHS),
	}
	if p.MaxGram > 0 {
		fields = append(fields, "maxgram="+strconv.Itoa(p.MaxGram))
	}
	if p.DisableGeneralize {
		fields = append(fields, "nogeneralize")
	}
	if p.DisableSubstringPrune {
		fields = append(fields, "noprune")
	}
	return strings.Join(fields, " ")
}

func parseParams(s string) (Params, error) {
	var p Params
	for _, field := range strings.Fields(s) {
		key, val, _ := strings.Cut(field, "=")
		var err error
		switch key {
		case "k":
			p.MinSupport, err = strconv.Atoi(val)
		case "delta":
			p.Delta, err = strconv.ParseFloat(val, 64)
		case "gamma":
			p.MinCoverage, err = strconv.ParseFloat(val, 64)
		case "maxlhs":
			p.MaxLHS, err = strconv.Atoi(val)
		case "maxgram":
			p.MaxGram, err = strconv.Atoi(val)
		case "nogeneralize":
			p.DisableGeneralize = true
		case "noprune":
			p.DisableSubstringPrune = true
		default:
			return p, fmt.Errorf("unknown params field %q", field)
		}
		if err != nil {
			return p, fmt.Errorf("bad params field %q: %v", field, err)
		}
	}
	return p, nil
}
