package pattern

import (
	"testing"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		r    rune
		want Class
	}{
		{'A', Upper}, {'Z', Upper}, {'a', Lower}, {'z', Lower},
		{'0', Digit}, {'9', Digit}, {'-', Symbol}, {' ', Symbol},
		{'_', Symbol}, {'.', Symbol}, {'É', Upper}, {'é', Lower},
	}
	for _, c := range cases {
		if got := ClassOf(c.r); got != c.want {
			t.Errorf("ClassOf(%q) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestClassContains(t *testing.T) {
	if !Any.Contains('x') || !Any.Contains('7') || !Any.Contains('%') {
		t.Error("Any must contain every rune")
	}
	if Upper.Contains('a') || Lower.Contains('A') || Digit.Contains('x') {
		t.Error("class containment leaked across classes")
	}
	if !Symbol.Contains('-') || Symbol.Contains('3') {
		t.Error("Symbol containment wrong")
	}
}

func TestLUB(t *testing.T) {
	if LUB(Upper, Upper) != Upper {
		t.Error("LUB of equal classes must be the class")
	}
	if LUB(Upper, Lower) != Any {
		t.Error("LUB of distinct classes must be Any")
	}
}

func TestMatchBasics(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{`\D{5}`, "90001", true},
		{`\D{5}`, "9001", false},
		{`\D{5}`, "900011", false},
		{`\D*`, "", true},
		{`\D*`, "123456", true},
		{`\D+`, "", false},
		{`\D+`, "7", true},
		{`900\D{2}`, "90001", true},
		{`900\D{2}`, "90101", false},
		{`\LU\LL*`, "John", true},
		{`\LU\LL*`, "JOhn", false},
		{`\LU\LL*\ \A*`, "John Charles", true},
		{`\LU\LL*\ \A*`, "John ", true},
		{`\LU\LL*\ \A*`, "John", false},
		{`\A*`, "anything at all 123", true},
		{`John\ \A*`, "John Bosco", true},
		{`John\ \A*`, "Johnny B", false},
		{`\LU{2}`, "AB", true},
		{`\LU{2}`, "Ab", false},
		{`\S`, "-", true},
		{`\S`, "a", false},
		{`\D{2,4}`, "123", true},
		{`\D{2,4}`, "1", false},
		{`\D{2,4}`, "12345", false},
		{`\A+`, "x", true},
		{`\A+`, "", false},
	}
	for _, c := range cases {
		p := MustParse(c.pat)
		if got := p.Match(c.s); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`(\D{3}`, `\D{3})`, `(a)(b)`, `{3}`, `+x`, `*`, `\D{`, `\D{x}`,
		`\D{3,1}`, `()`, `abc\`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		`\D{5}`, `(900)\D{2}`, `(\LU\LL*\ )\A*`, `(John\ )\A*`,
		`\LU\LL+`, `(\D{3})\D{2}`, `\A*`, `a\{b\}c`, `\\`, `\(\)`,
		`x\ y`, `\S+\D*`, `\D{2,4}`,
	}
	for _, src := range srcs {
		p := MustParse(src)
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q -> %q): %v", src, p.String(), err)
		}
		if !p.Equal(back) {
			t.Errorf("round trip %q -> %q -> %q not structurally equal", src, p.String(), back.String())
		}
	}
}

func TestConstrainedSpan(t *testing.T) {
	cases := []struct {
		pat, s, want string
		ok           bool
	}{
		{`(900)\D{2}`, "90001", "900", true},
		{`(900)\D{2}`, "80001", "", false},
		{`(\D{3})\D{2}`, "90210", "902", true},
		{`(John\ )\A*`, "John Charles", "John ", true},
		{`(John\ )\A*`, "John Bosco", "John ", true},
		{`(John\ )\A*`, "Susan Boyle", "", false},
		{`(\LU\LL*\ )\A*`, "John Charles", "John ", true},
		{`(\LU\LL*\ )\A*`, "Susan Orlean", "Susan ", true},
		{`(\LU\LL*\ )\A*`, "Tayseer Fahmi", "Tayseer ", true},
		// No constrained region: span is the whole string.
		{`\D{5}`, "90001", "90001", true},
		// Fully constrained: span is the whole string.
		{`(\D{5})`, "90001", "90001", true},
	}
	for _, c := range cases {
		p := MustParse(c.pat)
		got, ok := p.ConstrainedSpan(c.s)
		if ok != c.ok || got != c.want {
			t.Errorf("ConstrainedSpan(%q, %q) = (%q, %v), want (%q, %v)",
				c.pat, c.s, got, ok, c.want, c.ok)
		}
	}
}

func TestEquivalent(t *testing.T) {
	first := MustParse(`(\LU\LL*\ )\A*`)
	if !first.Equivalent("John Charles", "John Bosco") {
		t.Error("same first name must be equivalent")
	}
	if first.Equivalent("John Charles", "Susan Orlean") {
		t.Error("different first names must not be equivalent")
	}
	zip3 := MustParse(`(\D{3})\D{2}`)
	if !zip3.Equivalent("90001", "90002") {
		t.Error("same 3-digit prefix must be equivalent")
	}
	if zip3.Equivalent("90001", "90101") {
		t.Error("different 3-digit prefixes must not be equivalent")
	}
	// Unconstrained pattern: equivalence is string equality.
	whole := MustParse(`\D{5}`)
	if !whole.Equivalent("90001", "90001") || whole.Equivalent("90001", "90002") {
		t.Error("unconstrained equivalence must be string equality")
	}
}

func TestConstantHelpers(t *testing.T) {
	c := Constant("M")
	if !c.Match("M") || c.Match("F") || c.Match("MM") {
		t.Error("Constant(M) must match exactly M")
	}
	if v, ok := c.ConstantValue(); !ok || v != "M" {
		t.Errorf("ConstantValue = %q, %v", v, ok)
	}
	if !c.FullyConstrained() {
		t.Error("Constant must be fully constrained")
	}
	p := ConstantPrefix("John ")
	if !p.Match("John Charles") || p.Match("Johnny") {
		t.Error("ConstantPrefix match wrong")
	}
	if v, ok := p.ConstrainedConstant(); !ok || v != "John " {
		t.Errorf("ConstrainedConstant = %q, %v", v, ok)
	}
	if got, _ := p.ConstrainedSpan("John Smith"); got != "John " {
		t.Errorf("span = %q", got)
	}
}

func TestMinMaxLen(t *testing.T) {
	p := MustParse(`\D{3}\LL*x`)
	if p.MinLen() != 4 {
		t.Errorf("MinLen = %d, want 4", p.MinLen())
	}
	if p.MaxLen() != Unbounded {
		t.Errorf("MaxLen = %d, want Unbounded", p.MaxLen())
	}
	q := MustParse(`\D{3}\LU{2}`)
	if q.MaxLen() != 5 || q.MinLen() != 5 {
		t.Errorf("fixed pattern min/max = %d/%d", q.MinLen(), q.MaxLen())
	}
}

func TestLangContains(t *testing.T) {
	cases := []struct {
		big, small string
		want       bool
	}{
		{`\D*`, `\D{5}`, true},
		{`\D{5}`, `\D*`, false},
		{`\A*`, `\LU\LL*`, true},
		{`\LU\LL*`, `\A*`, false},
		{`\D+`, `\D{3}`, true},
		{`\D{3}`, `\D+`, false},
		{`\A*`, `John\ \A*`, true},
		{`\LU\LL*\ \A*`, `John\ \A*`, true},
		{`John\ \A*`, `\LU\LL*\ \A*`, false},
		{`900\D{2}`, `900\D{2}`, true},
		{`9\D*`, `900\D{2}`, true},
		{`\D{5}`, `900\D{2}`, true},
		{`800\D{2}`, `900\D{2}`, false},
		{`\LU+`, `\LU{2}`, true},
		{`\S\A*`, `\D\A*`, false},
	}
	for _, c := range cases {
		big, small := MustParse(c.big), MustParse(c.small)
		if got := LangContains(big, small); got != c.want {
			t.Errorf("LangContains(%q ⊇ %q) = %v, want %v", c.big, c.small, got, c.want)
		}
	}
}

func TestLangEquivalent(t *testing.T) {
	if !LangEquivalent(MustParse(`\D{2}\D{3}`), MustParse(`\D{5}`)) {
		t.Error("\\D{2}\\D{3} must equal \\D{5}")
	}
	if LangEquivalent(MustParse(`\D{5}`), MustParse(`\D+`)) {
		t.Error("\\D{5} must not equal \\D+")
	}
	if !LangEquivalent(MustParse(`\D*\D*`), MustParse(`\D*`)) {
		t.Error("\\D*\\D* must equal \\D*")
	}
}

func TestRestricts(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		// Example 4 of the paper: fully-constrained \D{5} vs \D*.
		{`(\D{5})`, `(\D*)`, true},
		{`(\D*)`, `(\D{5})`, false}, // language not contained
		// Constant first name restricts the variable first-name pattern.
		{`(John\ )\A*`, `(\LU\LL*\ )\A*`, true},
		// Variable does not restrict constant.
		{`(\LU\LL*\ )\A*`, `(John\ )\A*`, false},
		// Longer fixed prefix restricts shorter fixed prefix.
		{`(\D{3})\D{2}`, `(\D{2})\D{3}`, true},
		{`(\D{2})\D{3}`, `(\D{3})\D{2}`, false},
		// Constant zip prefix restricts variable prefix of equal length.
		{`(900)\D{2}`, `(\D{3})\D{2}`, true},
		// Full equality refines everything with a containing language.
		{`(\D{5})`, `(\D{3})\D{2}`, true},
		// Reflexive on the paper's shapes.
		{`(\LU\LL*\ )\A*`, `(\LU\LL*\ )\A*`, true},
		{`(900)\D{2}`, `(900)\D{2}`, true},
	}
	for _, c := range cases {
		p, q := MustParse(c.p), MustParse(c.q)
		if got := Restricts(p, q); got != c.want {
			t.Errorf("Restricts(%q ⊆ %q) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestGeneralizeString(t *testing.T) {
	cases := []struct{ s, want string }{
		{"90001", `\D{5}`},
		{"John", `\LU\LL{3}`},
		{"F-9-107", `\LU\-\D\-\D{3}`},
		{"AB12", `\LU{2}\D{2}`},
	}
	for _, c := range cases {
		got := GeneralizeString(c.s)
		want := MustParse(c.want)
		if !LangEquivalent(got, want) {
			t.Errorf("GeneralizeString(%q) = %q, want %q", c.s, got, want)
		}
		if !got.Match(c.s) {
			t.Errorf("GeneralizeString(%q) does not match its input", c.s)
		}
	}
}

func TestGeneralizeStrings(t *testing.T) {
	g := GeneralizeStrings([]string{"John", "Susan", "Tayseer"})
	if g == nil {
		t.Fatal("names must generalize")
	}
	for _, s := range []string{"John", "Susan", "Tayseer", "Noor"} {
		if !g.Match(s) {
			t.Errorf("generalized name pattern %q must match %q", g, s)
		}
	}
	if g.Match("john") || g.Match("JOHN") {
		t.Errorf("pattern %q is too general", g)
	}
	z := GeneralizeStrings([]string{"90001", "10458", "60603"})
	if z == nil || !LangEquivalent(z, MustParse(`\D{5}`)) {
		t.Errorf("zips must generalize to \\D{5}, got %v", z)
	}
	if GeneralizeStrings(nil) != nil {
		t.Error("empty input must return nil")
	}
	if g := GeneralizeStrings([]string{"a1", "a-"}); g == nil || !g.Match("aX") {
		// Equal-arity runs of different classes unify via LUB to \A.
		t.Errorf("equal-arity runs should unify via LUB, got %v", g)
	}
	if g := GeneralizeStrings([]string{"F-9-107", "A-1-222"}); g == nil || !g.Match("B-7-555") {
		t.Errorf("dashed codes must unify keeping literal dashes, got %v", g)
	}
	if g := GeneralizeStrings([]string{"ab", "a-b"}); g != nil {
		t.Errorf("misaligned runs must fail, got %q", g)
	}
}

func TestGeneralizeFirstToken(t *testing.T) {
	g := GeneralizeFirstToken([]string{"John", "Susan"}, ' ')
	if g == nil {
		t.Fatal("first tokens must generalize")
	}
	if !g.Match("Noor Wagdi") {
		t.Errorf("%q must match full names", g)
	}
	if !g.Equivalent("John Charles", "John Bosco") {
		t.Error("same first name must be equivalent under generalized pattern")
	}
	if g.Equivalent("John Charles", "Susan Orlean") {
		t.Error("different first names must not be equivalent")
	}
}

func TestLangContainsConsecutiveUnbounded(t *testing.T) {
	// Regression: the Kleene loop of each unbounded token must live on
	// its own NFA state; sharing the state let \LU+\S* accept
	// interleavings like "Q-Q" during containment checks.
	p := MustParse(`\LU+\S*`)
	q := MustParse(`\LU+\S*\LU*`)
	if LangContains(p, q) {
		t.Error(`\LU+\S*\LU* must not be contained in \LU+\S*`)
	}
	if !LangContains(q, p) {
		t.Error(`\LU+\S* must be contained in \LU+\S*\LU*`)
	}
	// Interleaving acceptor vs strict sequence.
	seq := MustParse(`\LU\LU*\LU{2}\S*`)
	flat := MustParse(`\LU{3,}\S*`)
	if !LangEquivalent(seq, flat) {
		t.Error("sequential unbounded runs must flatten equivalently")
	}
	mix := MustParse(`\LU\S\LU\S`)
	if LangContains(flat, mix) {
		t.Error("interleaved string set must not be contained in LU-then-S")
	}
}
