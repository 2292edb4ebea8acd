package pfd

import (
	"fmt"
	"slices"
	"strings"

	"pfd/internal/pattern"
)

// This file holds the one text codec for the paper's λ-notation: a
// line parser (ParseLine) and its printer (Line.String), which rule
// files, PFD.String/ParsePFD and the inference rules all go through.
// The grammar (also documented in DESIGN.md and cmd/pfdinfer) is, per
// line:
//
//	line    := Relation "(" side "->" side ")"
//	side    := "[" item *( "," item ) "]"
//	item    := attr "=" cell | attr          (a bare attr means "_")
//	cell    := "_" | "⊥" | pattern | bare-constant
//	pfd     := row *( ";" row ) | empty
//	row     := line with exactly one RHS item (normal form)
//	empty   := Relation "(" "[" attrs "]" "->" "[" attr "]" ", Tp=∅" ")"
//
// Cells render with the tableau delimiters (',', ';', '[', ']'),
// spaces, and '_' backslash-escaped (pattern.Token.String), and names
// with those plus '=', parens and braces (writeName), so the splits
// below are unambiguous when they skip escape pairs.

// Term is one "attr = cell" item of a λ-notation side.
type Term struct {
	Attr string
	Cell Cell
}

// Line is one λ-notation constraint, Relation([a = cell, b] -> [c = cell, …]).
// Either side may list several attributes, in written order.
type Line struct {
	Relation string
	LHS, RHS []Term
}

// ParseLine reads one λ-notation constraint,
//
//	Zip([zip = (900)\D{2}] -> [city = Los\ Angeles])
//
// Either side may list several attributes; a bare attribute (no
// "= cell") is the unnamed variable '_'.
func ParseLine(src string) (Line, error) {
	s := strings.TrimSpace(src)
	open := indexUnescaped(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return Line{}, fmt.Errorf("pfd: rule %q: want Relation([...] -> [...])", src)
	}
	lhsPart, rhsPart, found := cutTopLevel(s[open+1:len(s)-1], "->")
	if !found {
		return Line{}, fmt.Errorf("pfd: rule %q: missing ->", src)
	}
	l := Line{Relation: unescapeName(trimUnescaped(s[:open]))}
	var err error
	if l.LHS, err = parseSide(lhsPart); err != nil {
		return Line{}, fmt.Errorf("pfd: rule %q LHS: %w", src, err)
	}
	if l.RHS, err = parseSide(rhsPart); err != nil {
		return Line{}, fmt.Errorf("pfd: rule %q RHS: %w", src, err)
	}
	if a, ok := repeatedAttr(l.LHS, func(t Term) string { return t.Attr }); ok {
		return Line{}, &DuplicateAttrError{Rule: src, Side: "LHS", Attr: a}
	}
	if a, ok := repeatedAttr(l.RHS, func(t Term) string { return t.Attr }); ok {
		return Line{}, &DuplicateAttrError{Rule: src, Side: "RHS", Attr: a}
	}
	return l, nil
}

// A DuplicateAttrError reports a rule side that names one attribute
// more than once. A side is a set of attributes, so a second cell for
// the same attribute has no meaning: ParseLine and New reject it rather
// than keep or drop one of the cells.
type DuplicateAttrError struct {
	Rule string // the rule text; "" for a PFD built by New
	Side string // "LHS" or "RHS"
	Attr string
}

func (e *DuplicateAttrError) Error() string {
	msg := fmt.Sprintf("%s names attribute %q twice", e.Side, e.Attr)
	if e.Rule != "" {
		return fmt.Sprintf("pfd: rule %q %s", e.Rule, msg)
	}
	return "pfd: " + msg
}

// repeatedAttr returns the first attribute that name gives twice
// among items.
func repeatedAttr[T any](items []T, name func(T) string) (string, bool) {
	for i := range items {
		for j := range i {
			if name(items[j]) == name(items[i]) {
				return name(items[i]), true
			}
		}
	}
	return "", false
}

// String prints the line in the grammar ParseLine reads, names escaped
// and every cell written out ("a = _" for a bare attribute).
func (l Line) String() string {
	var b strings.Builder
	l.write(&b)
	return b.String()
}

func (l Line) write(b *strings.Builder) {
	writeName(b, l.Relation)
	b.WriteString("([")
	writeTerms(b, l.LHS)
	b.WriteString("] -> [")
	writeTerms(b, l.RHS)
	b.WriteString("])")
}

func writeTerms(b *strings.Builder, terms []Term) {
	for i, t := range terms {
		if i > 0 {
			b.WriteString(", ")
		}
		writeName(b, t.Attr)
		b.WriteString(" = ")
		t.Cell.render(b)
	}
}

// ParseCell reads one tableau cell: '_' (or '⊥') is the wildcard, a
// string containing pattern meta-runes is parsed in the pattern
// syntax (an unconstrained pattern is normalized to constrain its
// whole body, matching its whole-value comparison semantics), and a
// bare string with no meta-runes is a fully-constrained constant.
func ParseCell(src string) (Cell, error) {
	if src == "_" || src == "⊥" {
		return Wildcard(), nil
	}
	if src == "()" {
		// The empty-constant cell: matches exactly "".
		return Pat(pattern.Constant("")), nil
	}
	if src == "" {
		return Cell{}, fmt.Errorf("pfd: empty tableau cell")
	}
	if !strings.ContainsAny(src, `\()*+{}`) {
		return Pat(pattern.Constant(src)), nil
	}
	p, err := pattern.Parse(src)
	if err != nil {
		return Cell{}, err
	}
	if !p.Constrained() {
		// No explicit region means whole-value comparison; make that
		// explicit so the cell round-trips to a canonical rendering.
		p = pattern.NewConstrained(p.Tokens, 0, len(p.Tokens))
	}
	return Pat(p), nil
}

// ParseTableauRow reads one normal-form λ-notation constraint,
//
//	Zip([zip = (900)\D{2}] -> [city = Los\ Angeles])
//
// returning the relation name, the LHS attributes in written order,
// the RHS attribute, and the parsed tableau row.
func ParseTableauRow(src string) (relation string, lhs []string, rhs string, row Row, err error) {
	l, err := ParseLine(src)
	if err != nil {
		return
	}
	if len(l.RHS) != 1 {
		err = fmt.Errorf("pfd: rule %q: want exactly one RHS attribute (normal form), got %d", src, len(l.RHS))
		return
	}
	lhs = make([]string, len(l.LHS))
	row = Row{LHS: make([]Cell, len(l.LHS)), RHS: l.RHS[0].Cell}
	for i, t := range l.LHS {
		lhs[i], row.LHS[i] = t.Attr, t.Cell
	}
	return l.Relation, lhs, l.RHS[0].Attr, row, nil
}

// ParsePFD parses the full λ-notation rendering of a PFD — one or
// more tableau rows joined by "; ", or the empty-tableau form
// "Rel([a,b] -> [c], Tp=∅)" — inverting PFD.String(). Every row must
// share the relation, the LHS attribute list, and the RHS attribute.
func ParsePFD(src string) (*PFD, error) {
	s := strings.TrimSpace(src)
	if body, ok := strings.CutSuffix(s, emptyMarker); ok {
		return parseEmptyForm(src, body+")")
	}
	var (
		relation string
		lhs      []string
		rhs      string
		rows     []Row
	)
	for i, part := range splitTopLevel(s, ';') {
		rel, rowLHS, rowRHS, row, err := ParseTableauRow(part)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			relation, lhs, rhs = rel, rowLHS, rowRHS
		} else {
			if rel != relation {
				return nil, fmt.Errorf("pfd: %q: tableau row %d changes relation %q -> %q", src, i, relation, rel)
			}
			if !slices.Equal(rowLHS, lhs) || rowRHS != rhs {
				return nil, fmt.Errorf("pfd: %q: tableau row %d changes the embedded FD", src, i)
			}
		}
		rows = append(rows, row)
	}
	return New(relation, lhs, rhs, rows...)
}

// MustParsePFD is ParsePFD that panics on error, for tests.
func MustParsePFD(src string) *PFD {
	p, err := ParsePFD(src)
	if err != nil {
		panic(err)
	}
	return p
}

// emptyMarker ends the empty-tableau form "Rel([a,b] -> [c], Tp=∅)".
const emptyMarker = ", Tp=∅)"

// parseEmptyForm reads the empty-tableau form, its marker already
// replaced by the line's closing paren: the sides list attributes
// only, with one RHS attribute.
func parseEmptyForm(src, line string) (*PFD, error) {
	rel, lhs, rhs, row, err := ParseTableauRow(line)
	if err != nil {
		return nil, err
	}
	for _, c := range append(row.LHS, row.RHS) {
		if !c.IsWildcard() {
			return nil, fmt.Errorf("pfd: %q: the empty-tableau form lists attributes, not cells", src)
		}
	}
	return New(rel, lhs, rhs)
}

// parseSide reads "[a = cell, b]" in written order.
func parseSide(s string) ([]Term, error) {
	body, err := unbracket(s)
	if err != nil {
		return nil, err
	}
	items := splitTopLevel(body, ',')
	terms := make([]Term, len(items))
	for i, item := range items {
		// Cut at the first unescaped '=' — the attr/cell separator; an
		// attribute name containing '=' arrives escaped (writeName).
		attr, cellSrc := item, "_"
		if eq := indexUnescaped(item, '='); eq >= 0 {
			attr, cellSrc = item[:eq], trimUnescaped(item[eq+1:])
		}
		name := unescapeName(trimUnescaped(attr))
		if name == "" {
			return nil, fmt.Errorf("item %q: empty attribute name", strings.TrimSpace(item))
		}
		cell, err := ParseCell(cellSrc)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", name, err)
		}
		terms[i] = Term{Attr: name, Cell: cell}
	}
	return terms, nil
}

// unbracket strips one "[ ... ]" layer.
func unbracket(s string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return "", fmt.Errorf("want [attr = cell, ...], got %q", s)
	}
	return s[1 : len(s)-1], nil
}

// writeName writes a relation or attribute name for the λ-notation
// grammar into b, backslash-escaping the delimiters a name could
// otherwise be split on — including braces (splitTopLevel counts them
// as depth) and whitespace (the parser trims unescaped padding around
// names). (Cells escape their own delimiters in pattern rendering;
// this is the counterpart for the names around them.)
func writeName(b *strings.Builder, s string) {
	// Byte-wise: the delimiters are ASCII and multi-byte UTF-8
	// sequences contain no ASCII bytes, so this is encoding-safe and —
	// unlike a rune loop — leaves invalid UTF-8 untouched.
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\', '(', ')', '[', ']', '{', '}', ',', ';', '=', ' ', '\t':
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
}

// unescapeName removes the backslash escapes writeName added.
func unescapeName(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// trimUnescaped strips leading and trailing unescaped spaces and tabs:
// the structural padding the renderer writes around names and cells.
// Escaped whitespace (part of a name or a trailing literal-space
// pattern token) is preserved, so "zip\ " keeps its space while
// "zip  " trims to "zip".
func trimUnescaped(s string) string {
	start := 0
	for start < len(s) && (s[start] == ' ' || s[start] == '\t') {
		start++
	}
	end := len(s)
	for end > start {
		if c := s[end-1]; c != ' ' && c != '\t' {
			break
		}
		// A whitespace byte is escaped iff preceded by an odd run of
		// backslashes.
		n := 0
		for j := end - 2; j >= start && s[j] == '\\'; j-- {
			n++
		}
		if n%2 == 1 {
			break
		}
		end--
	}
	return s[start:end]
}

// indexUnescaped returns the index of the first sep byte not preceded
// by a backslash escape, or -1.
func indexUnescaped(s string, sep byte) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case sep:
			return i
		}
	}
	return -1
}

// cutTopLevel splits s at the first occurrence of sep that is outside
// brackets and not preceded by a backslash escape.
func cutTopLevel(s, sep string) (string, string, bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte
		case '[':
			depth++
		case ']':
			depth--
		default:
			if depth == 0 && strings.HasPrefix(s[i:], sep) {
				return s[:i], s[i+len(sep):], true
			}
		}
	}
	return "", "", false
}

// splitTopLevel splits s on sep bytes that are outside brackets and
// braces (pattern {N,M} quantifiers) and not backslash-escaped.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
