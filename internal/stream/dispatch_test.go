package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// The tests in this file pin the dispatch index against the sequential
// Checker on rulesets whose rows the index actually files under anchored
// literals: mined datagen rulesets, a hand-made tableau of edge cases,
// and a fuzz target over arbitrary bytes.

// minedWorkload mines a ruleset from a clean datagen reference with the
// default discovery parameters (as the serving benchmark does) and
// draws a 2%-dirty stream from a second seed.
func minedWorkload(tb testing.TB, id string, refRows, streamRows int) (pfds []*pfd.PFD, ref, dirty *relation.Table) {
	tb.Helper()
	spec, ok := datagen.SpecByID(id)
	if !ok {
		tb.Fatalf("no datagen table %s", id)
	}
	ref, _ = spec.Build(refRows, 2, 0)
	dirty, _ = spec.Build(streamRows, 3, 0.02)
	for _, dep := range discovery.Discover(ref.Clone(), discovery.DefaultParams()).Dependencies {
		pfds = append(pfds, dep.PFD)
	}
	if len(pfds) == 0 {
		tb.Fatalf("mining %s found no rules", id)
	}
	return pfds, ref, dirty
}

// tableTuples returns t's rows as tuple maps.
func tableTuples(t *relation.Table) []map[string]string {
	out := make([]map[string]string, t.NumRows())
	for id := range out {
		m := make(map[string]string, len(t.Cols))
		for c, name := range t.Cols {
			m[name] = t.At(id, c)
		}
		out[id] = m
	}
	return out
}

// tupleTable builds a table with the given columns from tuple maps.
func tupleTable(cols []string, tuples []map[string]string) *relation.Table {
	t := relation.New("R", cols...)
	row := make([]string, len(cols))
	for _, tu := range tuples {
		for i, c := range cols {
			row[i] = tu[c]
		}
		t.Append(row...)
	}
	return t
}

// entryPoint feeds a run of tuples to an engine from the given number
// of producers taking turns (see inTurns): Submit hands tuple i to
// producer i%producers, SubmitTable splits the run into one table per
// producer.
type entryPoint struct {
	name string
	feed func(e *Engine, cols []string, tuples []map[string]string, producers int) error
}

var entryPoints = []entryPoint{
	{"Submit", func(e *Engine, _ []string, tuples []map[string]string, producers int) error {
		return inTurns(len(tuples), producers, func(i int) error { return e.Submit(tuples[i]) })
	}},
	{"SubmitTable", func(e *Engine, cols []string, tuples []map[string]string, producers int) error {
		per := (len(tuples) + producers - 1) / producers
		return inTurns(producers, producers, func(i int) error {
			lo := min(i*per, len(tuples))
			return e.SubmitTable(tupleTable(cols, tuples[lo:min(lo+per, len(tuples))]))
		})
	}},
}

// checkAgainstChecker runs the phases in order through every entry
// point from 1 and 4 producers and requires the sorted violation set of
// the sequential Checker over the concatenated phases.
func checkAgainstChecker(t *testing.T, pfds []*pfd.PFD, cols []string, phases ...[]map[string]string) int {
	t.Helper()
	var all []map[string]string
	for _, ph := range phases {
		all = append(all, ph...)
	}
	want := sequentialViolations(t, pfds, all)
	SortViolations(want, pfdIndex(pfds))
	for _, ep := range entryPoints {
		for _, producers := range []int{1, 4} {
			e := New(pfds, Options{})
			for _, ph := range phases {
				if err := ep.feed(e, cols, ph, producers); err != nil {
					t.Fatalf("%s: %v", ep.name, err)
				}
			}
			rep := e.Close()
			if rep.Rows != len(all) {
				t.Fatalf("%s producers=%d: Rows = %d, want %d", ep.name, producers, rep.Rows, len(all))
			}
			if !reflect.DeepEqual(rep.Violations, want) {
				t.Fatalf("%s producers=%d: violation sets differ\n got %d: %+v\nwant %d: %+v",
					ep.name, producers, len(rep.Violations), firstN(rep.Violations), len(want), firstN(want))
			}
		}
	}
	return len(want)
}

func firstN(vs []pfd.StreamViolation) []pfd.StreamViolation {
	return vs[:min(len(vs), 8)]
}

// indexShape counts the tableau rows filed under anchors and on scan
// lists across an engine's index.
func indexShape(e *Engine) (anchored, scanned int) {
	for _, ix := range e.index {
		// Every row is filed under exactly one anchor or on the scan list.
		anchored += len(ix.meta) - len(ix.scan)
		scanned += len(ix.scan)
	}
	return anchored, scanned
}

// TestMinedRulesetsMatchChecker replays a mined ruleset's clean
// reference (the warm replay) and then a dirty stream, and requires the
// Checker's violations through both entry points from 1 and 4
// producers.
func TestMinedRulesetsMatchChecker(t *testing.T) {
	for _, w := range []struct {
		id               string
		refRows, dirties int
	}{
		{"T1", 6704, 1500},
		{"T13", 5287, 1500},
	} {
		t.Run(w.id, func(t *testing.T) {
			pfds, ref, dirty := minedWorkload(t, w.id, w.refRows, w.dirties)
			e := New(pfds, Options{})
			defer e.Close()
			anchored, scanned := indexShape(e)
			if anchored <= scanned {
				t.Fatalf("index files %d rows under anchors and %d on scan lists; want mostly anchored\n%s",
					anchored, scanned, describeIndex(e))
			}
			if n := checkAgainstChecker(t, pfds, ref.Cols, tableTuples(ref), tableTuples(dirty)); n == 0 {
				t.Fatal("no violations: test is vacuous")
			}
		})
	}
}

// handPFDs is a mixed-shape ruleset aimed at the index's edge cases:
// anchors after multi-byte skips, the empty constant, two rows under one
// literal, a two-attribute LHS anchored only on its second cell, and
// anchored rows next to scan-list rows in one PFD.
func handPFDs(tb testing.TB) []*pfd.PFD {
	tb.Helper()
	cell := func(src string) pfd.Cell {
		c, err := pfd.ParseCell(src)
		if err != nil {
			tb.Fatalf("ParseCell(%q): %v", src, err)
		}
		return c
	}
	row := func(rhs string, lhs ...string) pfd.Row {
		r := pfd.Row{RHS: cell(rhs)}
		for _, l := range lhs {
			r.LHS = append(r.LHS, cell(l))
		}
		return r
	}
	mixed := pfd.MustNew("R", []string{"a"}, "c",
		row("X", "Phoenix"),               // exact
		row("_", "Phoenix"),               // same literal as the row above
		row(`(\LU)\A*`, `\A{2}(ab)\A*`),   // skip 2 runes, then "ab"
		row("_", `\A{1}(é)\A*`),           // multi-byte literal after a skip
		row("E", "()"),                    // the empty constant
		row("_", "_"),                     // wildcard: scan list
		row(`(\D)\A*`, `(\D{3})\D{2}`),    // fixed shape: scan list
		row("_", `(B)\A*`),                // prefix, no skip
		row("Y", `\A{3}(€)\A*`),           // 3-byte literal after 3 runes
		row("_", `(\LU\LL*)\A*`),          // greedy shape: scan list
		row("Z", "Bé"),                    // exact multi-byte
		row(`(\A{2})\A*`, `\A{2}(ab)\A*`), // second row under the skip-2 literal
	)
	pair := pfd.MustNew("R", []string{"a", "b"}, "c",
		row("_", `(\D{3})\D{2}`, `(B)\A*`),    // only the second cell anchors
		row("Q", `(\D)\A*`, "Phoenix"),        // likewise, exact
		row("_", "_", "_"),                    // scan list
		row("_", `\A{1}(x)\A*`, `(\D{2})\A*`), // anchored on the first cell
	)
	return []*pfd.PFD{mixed, pair}
}

// handValues mixes the literals above with multi-byte runes, invalid
// UTF-8 and values too short for skip plus literal.
var handValues = []string{
	"", "Phoenix", "Phoenixx", "B", "Bé", "Bx", "9", "90001", "900", "12345",
	"abab", "éüab", "é\xffabc", "\xff\xfeab", "\xffab", "éab", "é", "éü", "éüa",
	"xéz", "aé", "ééé", "ab€", "abc€x", "éé€", "\xff\xff\xff€", "Xx", "Los",
	"x12", "x1", "\xe2\x82", "ab\xe2\x82\xac", "Q", "E", "X", "Y", "Z",
}

func handStream(r *rand.Rand, n int) []map[string]string {
	pick := func() string {
		if r.Intn(4) == 0 {
			var b strings.Builder
			for k := r.Intn(3); k >= 0; k-- {
				b.WriteString(handValues[r.Intn(len(handValues))])
			}
			return b.String()
		}
		return handValues[r.Intn(len(handValues))]
	}
	out := make([]map[string]string, n)
	for i := range out {
		out[i] = map[string]string{"a": pick(), "b": pick(), "c": pick()}
	}
	return out
}

// TestHandTableauMatchesChecker pins the index's edge cases against the
// Checker through both entry points from 1 and 4 producers.
func TestHandTableauMatchesChecker(t *testing.T) {
	pfds := handPFDs(t)
	e := New(pfds, Options{})
	defer e.Close()
	if anchored, scanned := indexShape(e); anchored != 12 || scanned != 4 {
		t.Fatalf("index files %d anchored and %d scan rows, want 12 and 4\n%s", anchored, scanned, describeIndex(e))
	}
	r := rand.New(rand.NewSource(14))
	total := 0
	for trial := 0; trial < 20; trial++ {
		total += checkAgainstChecker(t, pfds, []string{"a", "b", "c"}, handStream(r, 50+r.Intn(250)))
	}
	if total == 0 {
		t.Fatal("no violations: test is vacuous")
	}
}

// TestConcurrentProducersHandTableau reads the dispatch index from
// several producers at once (run it under -race). Violations of rows
// with a constant LHS and a constant RHS are exact single-tuple checks,
// so their count per row does not depend on the interleaving.
func TestConcurrentProducersHandTableau(t *testing.T) {
	pfds := handPFDs(t)
	const producers = 4
	r := rand.New(rand.NewSource(41))
	streams := make([][]map[string]string, producers)
	var all []map[string]string
	for p := range streams {
		streams[p] = handStream(r, 300)
		all = append(all, streams[p]...)
	}
	idx := pfdIndex(pfds)
	exact := func(vs []pfd.StreamViolation) map[[2]int]int {
		counts := map[[2]int]int{}
		for _, v := range vs {
			tr := v.PFD.Tableau[v.TableauRow]
			if _, ok := tr.RHS.Constant(); ok && tr.ConstantLHS() {
				counts[[2]int{idx[v.PFD], v.TableauRow}]++
			}
		}
		return counts
	}
	want := exact(sequentialViolations(t, pfds, all))
	if len(want) == 0 {
		t.Fatal("no exact-row violations: test is vacuous")
	}
	e := New(pfds, Options{})
	var wg sync.WaitGroup
	for _, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tu := range st {
				if err := e.Submit(tu); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := exact(e.Close().Violations); !reflect.DeepEqual(got, want) {
		t.Fatalf("exact-row violation counts = %v, want %v", got, want)
	}
}

// TestCandidatesAreSortedAndSound checks the index directly: for every
// hand value the candidate list is ascending and contains every row
// whose LHS matches.
func TestCandidatesAreSortedAndSound(t *testing.T) {
	pfds := handPFDs(t)
	e := New(pfds, Options{})
	defer e.Close()
	var cand []int32
	for _, a := range handValues {
		for _, b := range handValues {
			tuple := map[string]string{"a": a, "b": b, "c": ""}
			vals := make([]string, len(e.required))
			for i, rc := range e.required {
				vals[i] = tuple[rc.Column]
			}
			for pi, p := range pfds {
				cand = e.index[pi].candidates(vals, cand)
				for i := 1; i < len(cand); i++ {
					if cand[i-1] >= cand[i] {
						t.Fatalf("candidates %v not strictly ascending", cand)
					}
				}
				for ri, tr := range p.Tableau {
					if _, ok := pfd.LHSKey(p, tr, tuple); ok && !slices.Contains(cand, int32(ri)) {
						t.Fatalf("pfd %d row %d matches a=%q b=%q but is not a candidate (%v)", pi, ri, a, b, cand)
					}
				}
			}
		}
	}
}

// FuzzSubmitMatchesChecker feeds arbitrary byte values through the
// hand-made ruleset and requires the engine's violations (Submit from 2
// producers, SubmitTable from 1) to equal the sequential Checker's.
func FuzzSubmitMatchesChecker(f *testing.F) {
	f.Add([]byte("Phoenix\x1fB\x1fX\x1fPhoenix\x1fB\x1fY"))
	f.Add([]byte("éüab\x1fBé\x1f\x1f\xffab\x1f90001\x1fE"))
	f.Add([]byte("\x1f\x1f\x1fab€\x1fx12\x1fZ\x1fabc€x\x1fBx\x1fQ"))
	pfds := handPFDs(f)
	idx := pfdIndex(pfds)
	cols := []string{"a", "b", "c"}
	f.Fuzz(func(t *testing.T, data []byte) {
		fields := strings.Split(string(data), "\x1f")
		var tuples []map[string]string
		for i := 0; i+len(cols) <= len(fields) && len(tuples) < 64; i += len(cols) {
			tuples = append(tuples, map[string]string{"a": fields[i], "b": fields[i+1], "c": fields[i+2]})
		}
		want := sequentialViolations(t, pfds, tuples)
		SortViolations(want, idx)
		for _, run := range []struct {
			ep        entryPoint
			producers int
		}{{entryPoints[0], 2}, {entryPoints[1], 1}} {
			e := New(pfds, Options{})
			if err := run.ep.feed(e, cols, tuples, run.producers); err != nil {
				t.Fatal(err)
			}
			if got := e.Close().Violations; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: violations differ\n got %+v\nwant %+v", run.ep.name, got, want)
			}
		}
	})
}

var (
	minedT1Once   sync.Once
	minedT1PFDs   []*pfd.PFD
	minedT1Ref    *relation.Table
	minedT1Tuples []map[string]string
)

// BenchmarkSubmitMinedT1 measures the live path on T1's mined ruleset:
// an engine warmed with the clean reference through SubmitTable, then
// Submit over a 2%-dirty 20k-row stream (cycled), from one producer.
// It reports rows/s.
func BenchmarkSubmitMinedT1(b *testing.B) {
	minedT1Once.Do(func() {
		var dirty *relation.Table
		minedT1PFDs, minedT1Ref, dirty = minedWorkload(b, "T1", 6704, 20000)
		minedT1Tuples = tableTuples(dirty)
	})
	tuples := minedT1Tuples
	e := New(minedT1PFDs, Options{DiscardViolations: true})
	if err := e.SubmitTable(minedT1Ref); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Submit(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	e.Close()
}

// describeIndex renders the index's anchor groups for failure messages.
func describeIndex(e *Engine) string {
	var b strings.Builder
	for pi, ix := range e.index {
		fmt.Fprintf(&b, "pfd %d: scan %v\n", pi, ix.scan)
		for j, a := range ix.anchors {
			fmt.Fprintf(&b, "  lhs %d (pos %d): %+v\n", j, ix.lhs[j], a)
		}
	}
	return b.String()
}
