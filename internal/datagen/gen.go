package datagen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// A Dep is one ground-truth embedded dependency of a generated table.
type Dep struct {
	LHS []string
	RHS string
	// PatternOnly marks dependencies that hold only through partial
	// attribute values (e.g. the zip prefix), which whole-value ICs like
	// FDs and CFDs cannot express — the paper's headline class.
	PatternOnly bool
}

// Key renders the dependency like "[zip] -> [city]" (pfd.EmbeddedFD)
// to match the discovery output.
func (d Dep) Key() string { return pfd.EmbeddedFD(d.LHS, d.RHS) }

// Truth is the generator's oracle for one table.
type Truth struct {
	Deps []Dep
	// Errors maps each seeded dirty cell to its correct value.
	Errors map[relation.Cell]string
}

// DepKeys lists all ground-truth embedded dependencies.
func (tr *Truth) DepKeys() []string {
	out := make([]string, len(tr.Deps))
	for i, d := range tr.Deps {
		out[i] = d.Key()
	}
	sort.Strings(out)
	return out
}

// PatternOnlyKeys lists the dependencies invisible to whole-value ICs.
func (tr *Truth) PatternOnlyKeys() []string {
	var out []string
	for _, d := range tr.Deps {
		if d.PatternOnly {
			out = append(out, d.Key())
		}
	}
	sort.Strings(out)
	return out
}

// gen wraps the seeded source with pool helpers.
type gen struct {
	r *rand.Rand
}

func newGen(seed int64) *gen { return &gen{r: rand.New(rand.NewSource(seed))} }

func (g *gen) pick(n int) int { return g.r.Intn(n) }

// suffixPool pre-draws a small pool of fixed-length digit suffixes. Using
// pooled suffixes for phones and IDs forces full-value duplicates, so
// corrupted cells break exact whole-value FDs — mirroring the real tables,
// where FDep's exact matching is defeated by dirt (§5.1) while the
// partial-value dependency (area code -> state) survives.
func (g *gen) suffixPool(pool, length int) []string {
	out := make([]string, pool)
	for i := range out {
		out[i] = g.digits(length)
	}
	return out
}

func (g *gen) digits(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('0' + g.r.Intn(10)))
	}
	return b.String()
}

func (g *gen) person() (full string, gender string) {
	if g.r.Intn(2) == 0 {
		return maleFirst[g.pick(len(maleFirst))] + " " + lastNames[g.pick(len(lastNames))], "M"
	}
	return femaleFirst[g.pick(len(femaleFirst))] + " " + lastNames[g.pick(len(lastNames))], "F"
}

// personComma renders "Last, First M." — the full-name shape of Table 3.
func (g *gen) personComma() (full string, gender string) {
	first, gender := g.firstName()
	last := lastNames[g.pick(len(lastNames))]
	mid := string(rune('A' + g.r.Intn(26)))
	return last + ", " + first + " " + mid + ".", gender
}

func (g *gen) firstName() (string, string) {
	if g.r.Intn(2) == 0 {
		return maleFirst[g.pick(len(maleFirst))], "M"
	}
	return femaleFirst[g.pick(len(femaleFirst))], "F"
}

func (g *gen) city() cityInfo { return cities[g.pick(len(cities))] }

// zipFor draws a 5-digit zip with the city's determining prefix.
func (g *gen) zipFor(c cityInfo) string { return c.zip3 + g.digits(2) }

// phoneFor draws a 10-digit phone with the city's area code.
func (g *gen) phoneFor(c cityInfo) string { return c.area + g.digits(7) }

func (g *gen) year() int { return 2005 + g.r.Intn(15) }

func (g *gen) date(year int) string {
	return fmt.Sprintf("%04d-%02d-%02d", year, 1+g.r.Intn(12), 1+g.r.Intn(28))
}

// corrupt seeds dirt into one column of the finished table: rate*rows
// cells are replaced. When active is true the wrong value is drawn from
// the column's active domain (the harder case of Figure 6); otherwise a
// clearly out-of-domain value is written (Figure 5).
func corrupt(t *relation.Table, g *gen, col string, rate float64, active bool, truth *Truth) {
	if rate <= 0 {
		return
	}
	ci := t.MustCol(col)
	n := int(rate * float64(t.NumRows()))
	if n == 0 && rate > 0 {
		n = 1
	}
	// The column dictionary is exactly the active domain (skip retired
	// entries); sorting keeps draw order seed-stable.
	var values []string
	for code, v := range t.Dict(ci) {
		if t.DictCounts(ci)[code] > 0 {
			values = append(values, v)
		}
	}
	sort.Strings(values)
	if truth.Errors == nil {
		truth.Errors = map[relation.Cell]string{}
	}
	for k := 0; k < n; k++ {
		r := g.pick(t.NumRows())
		cell := relation.Cell{Row: r, Col: col}
		if _, done := truth.Errors[cell]; done {
			k--
			continue
		}
		orig := t.At(r, ci)
		var bad string
		if active && len(values) > 1 {
			for {
				bad = values[g.pick(len(values))]
				if bad != orig {
					break
				}
			}
		} else {
			bad = mutate(g, orig)
		}
		truth.Errors[cell] = orig
		t.SetAt(r, ci, bad)
	}
}

// mutate produces an out-of-active-domain corruption of v, in the style
// of Table 3's real errors (Chicag, lL, C): character drops, swaps and
// typos that leave the value outside the clean domain.
func mutate(g *gen, v string) string {
	rs := []rune(v)
	if len(rs) == 0 {
		return "?"
	}
	switch g.r.Intn(4) {
	case 0: // drop a rune: Chicago -> Chicag
		i := g.pick(len(rs))
		return string(rs[:i]) + string(rs[i+1:])
	case 1: // swap two adjacent runes: Chicago -> Chciago
		if len(rs) < 2 {
			return v + "~"
		}
		i := g.pick(len(rs) - 1)
		rs[i], rs[i+1] = rs[i+1], rs[i]
		return string(rs)
	case 2: // lowercase/uppercase flip: IL -> lL
		i := g.pick(len(rs))
		if rs[i] >= 'A' && rs[i] <= 'Z' {
			rs[i] = rs[i] - 'A' + 'a'
		} else if rs[i] >= 'a' && rs[i] <= 'z' {
			rs[i] = rs[i] - 'a' + 'A'
		} else {
			rs[i] = '~'
		}
		return string(rs)
	default: // append noise: 60603 -> 60603-6263
		return v + "-" + string(rune('0'+g.r.Intn(10)))
	}
}

// addUnisexNoise models the paper's unisex-name caveat: a few names
// appear with both genders, so over-general name -> gender PFDs pick up
// false positives exactly as §2.2 warns.
func addUnisexNoise(t *relation.Table, g *gen, nameCol, genderCol string, count int) {
	unisex := []string{"Kim", "Casey", "Jordan"}
	nc, gc := t.MustCol(nameCol), t.MustCol(genderCol)
	for i := 0; i < count && i < t.NumRows(); i++ {
		r := g.pick(t.NumRows())
		name := unisex[g.pick(len(unisex))] + " " + lastNames[g.pick(len(lastNames))]
		t.SetAt(r, nc, name)
		if g.r.Intn(2) == 0 {
			t.SetAt(r, gc, "M")
		} else {
			t.SetAt(r, gc, "F")
		}
	}
}
