// Package pfd is the public API of this reproduction of "Pattern
// Functional Dependencies for Data Cleaning" (Qahtan, Tang, Ouzzani, Cao,
// Stonebraker; PVLDB 13(5), 2020): the pattern language, the PFD
// constraint class, the discovery algorithm, PFD-based error detection
// and repair, the inference system, and a streaming validator.
//
// The v2 API is built on four pillars:
//
//   - Sources. Every way tuples enter the system — CSV files, JSONL
//     streams, in-memory tables, live channels — is a Source
//     (FromCSVFile, FromJSONL, FromTable, FromTuples), consumed
//     uniformly by discovery, detection, and streaming validation.
//   - Context-aware entry points with functional options:
//     Discover(ctx, src, ...DiscoverOption), Detect(ctx, src, pfds,
//     ...DetectOption), Validate(ctx, src, pfds, ...StreamOption), and
//     RepairToFixpoint(ctx, src, pfds, ...RepairOption). Cancellation
//     is threaded through the discovery worker pool and the stream
//     engine's write path; long runs report progress through options.
//   - Iterator results and typed errors. Findings, Violations, and
//     Dependencies are available as iter.Seq streams alongside the
//     slice forms, and failures carry types: *ParseError for
//     malformed input, *MissingColumnError for schema mismatches,
//     *CanceledError (wrapping context.Canceled) for interrupted runs,
//     *RuleParseError for malformed rule artifacts.
//   - Rulesets. Rules are a durable artifact: Discovery.Ruleset()
//     packages discovered PFDs with provenance, round-trips through
//     the paper's λ-notation text format (WriteTo/ParsePFD) and a
//     versioned JSON codec, and feeds detection, validation, repair,
//     and the Section 3 reasoning tasks (Consistent, Implies, Prove,
//     MinimalCover) without re-running discovery — see LoadRuleset.
//
// A minimal end-to-end use:
//
//	src := pfd.FromCSVFile("Zip", "zips.csv")
//	disc, err := pfd.Discover(ctx, src)
//	if err != nil { ... }
//	for dep := range disc.All() {
//	    fmt.Println(dep.Embedded(), dep.PFD)
//	}
//	det, err := pfd.Detect(ctx, pfd.FromTable(disc.Table()), disc.PFDs())
//	if err != nil { ... }
//	for f := range det.All() {
//	    fmt.Printf("%s: %q should be %q\n", f.Cell, f.Observed, f.Proposed)
//	}
//
// Streaming validation has one production path, the stream engine
// behind Validate and NewStreamEngineContext. See examples/ for
// runnable programs and DESIGN.md for the map from paper sections to
// packages.
package pfd

import (
	"context"

	"pfd/internal/discovery"
	"pfd/internal/formatdetect"
	"pfd/internal/inference"
	"pfd/internal/pattern"
	"pfd/internal/pfd"
	"pfd/internal/relation"
	"pfd/internal/repair"
	"pfd/internal/stream"
)

// Pattern is a constrained pattern of the restricted regex language
// (Section 2.1): classes \A \LU \LL \D \S, quantifiers {N} + *, and one
// optional constrained region written in parentheses, e.g. `(900)\D{2}`.
type Pattern = pattern.Pattern

// ParsePattern parses the textual pattern syntax.
func ParsePattern(src string) (*Pattern, error) { return pattern.Parse(src) }

// MustParsePattern is ParsePattern that panics on error.
func MustParsePattern(src string) *Pattern { return pattern.MustParse(src) }

// ConstantPattern builds a fully-constrained constant pattern matching
// exactly s.
func ConstantPattern(s string) *Pattern { return pattern.Constant(s) }

// GeneralizeStrings returns the most specific pattern matching every
// input, or nil when the inputs share no run structure.
func GeneralizeStrings(ss []string) *Pattern { return pattern.GeneralizeStrings(ss) }

// LangContains reports L(small) ⊆ L(big) for two patterns.
func LangContains(big, small *Pattern) bool { return pattern.LangContains(big, small) }

// Restricts reports the restricted-constrained-pattern relation Q ⊆ Q'
// (sound, conservatively incomplete; see internal/pattern).
func Restricts(p, q *Pattern) bool { return pattern.Restricts(p, q) }

// SimplifyPattern returns an equivalent pattern in compact normal form
// (adjacent same-label tokens merged, zero tokens dropped).
func SimplifyPattern(p *Pattern) *Pattern { return pattern.Simplify(p) }

// Table is a string-typed relation instance.
type Table = relation.Table

// Cell addresses one value of a table.
type Cell = relation.Cell

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols ...string) *Table { return relation.New(name, cols...) }

// ColumnProfile is the per-column profile of Sections 4.3 and 5.4
// (quantitative detection, code detection, tokenizer selection).
type ColumnProfile = relation.ColumnProfile

// PFD is a pattern functional dependency R(X -> B, Tp) in normal form.
type PFD = pfd.PFD

// TableauCell is one tableau entry: a constrained pattern or the
// wildcard.
type TableauCell = pfd.Cell

// TableauRow is one tableau tuple.
type TableauRow = pfd.Row

// Violation reports one breach of a PFD on a table.
type Violation = pfd.Violation

// NewPFD constructs a PFD after validating the tableau.
func NewPFD(relname string, lhs []string, rhs string, rows ...TableauRow) (*PFD, error) {
	return pfd.New(relname, lhs, rhs, rows...)
}

// Wildcard returns the '⊥' tableau cell.
func Wildcard() TableauCell { return pfd.Wildcard() }

// ParsePFD parses a PFD from the paper's λ-notation — the inverse of
// PFD.String, e.g. `Zip([zip = (900)\D{2}] -> [city = Los\ Angeles])`
// with multi-row tableaux joined by "; ".
func ParsePFD(src string) (*PFD, error) { return pfd.ParsePFD(src) }

// MustParsePFD is ParsePFD that panics on error.
func MustParsePFD(src string) *PFD { return pfd.MustParsePFD(src) }

// ParseTableauCell parses one tableau cell: '_' (or '⊥') is the
// wildcard, pattern syntax otherwise, and a string with no pattern
// meta-runes is a fully-constrained constant.
func ParseTableauCell(src string) (TableauCell, error) { return pfd.ParseCell(src) }

// Pat wraps a pattern in a tableau cell.
func Pat(p *Pattern) TableauCell { return pfd.Pat(p) }

// Params are the discovery knobs (K, δ, γ, LHS size).
type Params = discovery.Params

// DefaultParams returns the paper's §5.1 setting: K=5, δ=5%, γ=10%,
// single-attribute LHS.
func DefaultParams() Params { return discovery.DefaultParams() }

// Dependency is one discovered embedded dependency with its PFD.
type Dependency = discovery.Dependency

// Finding is one detected cell error with its proposed repair.
type Finding = repair.Finding

// Repair applies the proposed fixes to a copy of the table, returning the
// repaired copy and the number of cells changed.
func Repair(t *Table, findings []Finding) (*Table, int) { return repair.Apply(t, findings) }

// HolisticResult reports a fixpoint repair run.
type HolisticResult = repair.HolisticResult

// StreamViolation is a violation raised by the streaming engine.
type StreamViolation = pfd.StreamViolation

// MissingColumnError is returned by Validate and StreamEngine.Submit
// when a tuple lacks a column some PFD references, and by Detect and
// RepairToFixpoint when the input table does.
type MissingColumnError = pfd.MissingColumnError

// StreamEngine is the streaming validator: Submit is safe for
// concurrent producers, each of which matches its tuple without a
// lock and folds it into the one group-state map under the engine
// lock, and Snapshot/Close report violations with the paper's
// per-group consensus semantics (pinned by a differential test
// against the sequential reference checker in internal/pfd).
type StreamEngine = stream.Engine

// StreamReport is a consistent snapshot of a StreamEngine.
type StreamReport = stream.Report

// ErrEngineClosed is returned by StreamEngine.Submit once Close has
// run: the engine accepts no more tuples.
var ErrEngineClosed = stream.ErrClosed

// NewStreamEngineContext creates a streaming validator whose write
// path observes ctx: once it is canceled, Submit and SubmitTable fail
// fast with the context error. Close still returns the final report.
// Options are the functional StreamOption set; the manual-lifecycle
// engine ignores the Validate-only options (warmup source, producer
// count, progress).
func NewStreamEngineContext(ctx context.Context, pfds []*PFD, opts ...StreamOption) *StreamEngine {
	cfg := newStreamConfig(opts)
	return stream.NewContext(ctx, pfds, cfg.engine)
}

// FormatFinding is a single-column format outlier.
type FormatFinding = formatdetect.Finding

// DetectFormatOutliers runs the single-column pattern-profile detector —
// the Section 6 comparison class (Trifacta/FAHES-style). It catches
// malformed values but not cross-attribute errors; use Detect with PFDs
// for those.
func DetectFormatOutliers(t *Table) []FormatFinding {
	return formatdetect.Detect(t, formatdetect.Options{})
}

// ParseRule reads a rule in the paper's textual notation, e.g.
// "Name([name = (John\ )\A*] -> [gender = M])".
func ParseRule(src string) (*Rule, error) { return inference.ParseRule(src) }

// Proof is a derivation sequence in the axiom system of Figure 3.
type Proof = inference.Proof

// Prove constructs an axiomatic proof that the rules imply psi, or nil
// when the (sound) closure procedure cannot derive it.
func Prove(rules []*Rule, psi *Rule) *Proof { return inference.Prove(rules, psi) }

// Rule is a single-row PFD used by the inference system (Section 3).
type Rule = inference.Rule

// NewRule starts building an inference rule.
func NewRule(relname string) *Rule { return inference.NewRule(relname) }

// Implies reports whether the rule set logically implies psi, via the
// PFD-closure of Figure 7 (sound; see internal/inference for caveats).
func Implies(rules []*Rule, psi *Rule) bool { return inference.Implies(rules, psi) }

// Consistent decides whether some nonempty instance satisfies all rules
// (Theorem 3), returning a single-tuple witness when one exists.
func Consistent(rules []*Rule) (map[string]string, bool) { return inference.Consistent(rules) }

// Counterexample is a two-tuple instance refuting an implication.
type Counterexample = inference.Counterexample

// FindCounterexample searches for a two-tuple instance satisfying
// every rule but violating psi — the coNP refutation of Theorem 2 —
// returning nil when none exists within the small-model pools.
func FindCounterexample(rules []*Rule, psi *Rule) *Counterexample {
	return inference.FindCounterexample(rules, psi)
}

// MinimalCover drops every rule implied by the remaining ones,
// preserving the set's logical consequences (Section 3's minimal-cover
// task). For the artifact-level form see (*Ruleset).MinimalCover.
func MinimalCover(rules []*Rule) []*Rule { return inference.MinimalCover(rules) }

// RulesToRuleset folds single-row inference rules back into a named
// ruleset of normal-form PFDs — the inverse of (*Ruleset).Rules.
// Multi-attribute RHS rules decompose per restriction iv of §4.2; a
// rule with an attribute on both sides has no normal form and errors.
func RulesToRuleset(name string, rules []*Rule) (*Ruleset, error) {
	pfds, err := inference.ToPFDs(rules)
	if err != nil {
		return nil, err
	}
	return NewRuleset(name, pfds...), nil
}
