package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pfd/internal/datagen"
	"pfd/internal/relation"
)

// lookup returns the posting list of key k in a, or nil.
func lookup(a *Attribute, k Key) []int32 {
	for i := range a.Entries {
		if a.Entries[i].Key == k {
			return a.Entries[i].List
		}
	}
	return nil
}

func zipTable() *relation.Table {
	t := relation.New("Zip", "zip", "city")
	t.Append("90001", "Los Angeles")
	t.Append("90002", "Los Angeles")
	t.Append("90003", "Los Angeles")
	t.Append("90004", "New York")
	return t
}

func TestBuildNGramIndex(t *testing.T) {
	tb := zipTable()
	profs := relation.ProfileTable(tb)
	inv := Build(tb, profs, nil, Options{})
	zip := inv.Attrs["zip"]
	if zip == nil {
		t.Fatal("no zip attribute")
	}
	// The most specific shared prefix of 90001..90004 is 9000; shorter
	// prefixes with the same id set must be pruned in its favor (§4.4).
	if l := lookup(zip, Key{Text: "9000", Pos: 0}); len(l) != 4 {
		t.Fatalf("posting for 9000 = %v", l)
	}
	for _, short := range []string{"9", "90", "900"} {
		if lookup(zip, Key{Text: short, Pos: 0}) != nil {
			t.Errorf("substring pruning must drop %q in favor of 9000", short)
		}
	}
	// Full zips survive as singleton postings.
	if l := lookup(zip, Key{Text: "90001", Pos: 0}); len(l) != 1 {
		t.Error("full zip posting missing")
	}
}

func TestBuildTokenIndex(t *testing.T) {
	tb := relation.New("Name", "name", "gender")
	tb.Append("John Charles", "M")
	tb.Append("John Bosco", "M")
	tb.Append("Susan Orlean", "F")
	tb.Append("Susan Boyle", "M")
	profs := relation.ProfileTable(tb)
	inv := Build(tb, profs, nil, Options{})
	name := inv.Attrs["name"]
	if name.Mode != relation.ModeTokenize {
		t.Fatalf("name mode = %v", name.Mode)
	}
	if john := lookup(name, Key{Text: "John", Pos: 0}); !slices.Equal(john, []int32{0, 1}) {
		t.Fatalf("posting John = %v", john)
	}
	// The singleton token Charles is subsumed by the whole value
	// "John Charles" with the same id set and must be pruned (§4.4).
	if lookup(name, Key{Text: "Charles", Pos: 5}) != nil {
		t.Error("token subsumed by whole value must be pruned")
	}
	if lookup(name, Key{Text: "John Charles", Pos: 0}) == nil {
		t.Error("whole-value posting missing for tokenized column")
	}
}

func TestMinIDsFilter(t *testing.T) {
	tb := zipTable()
	profs := relation.ProfileTable(tb)
	inv := Build(tb, profs, []string{"zip"}, Options{MinIDs: 2})
	zip := inv.Attrs["zip"]
	for _, e := range zip.Entries {
		if e.Count() < 2 {
			t.Errorf("entry %v below MinIDs survived", e.Key)
		}
	}
}

func TestNumPatterns(t *testing.T) {
	tb := zipTable()
	profs := relation.ProfileTable(tb)
	inv := Build(tb, profs, nil, Options{})
	if inv.Attrs["city"].NumPatterns() == 0 {
		t.Error("city must have postings")
	}
}

// naivePruneSubstrings is the seed's O(E²) reference implementation,
// kept to differential-test the signature-bucketed version.
func naivePruneSubstrings(entries []Entry) []Entry {
	var keep []Entry
	for _, e := range entries {
		subsumed := false
		for i := range keep {
			k := &keep[i]
			if len(k.Key.Text) > len(e.Key.Text) &&
				containsText(k.Key.Text, e.Key.Text) && equalLists(k.List, e.List) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			keep = append(keep, e)
		}
	}
	return keep
}

func containsText(hay, needle string) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func TestPruneSubstringsMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	words := []string{"900", "9000", "90001", "Los", "Angeles", "Los Angeles", "LA", "os", "el", "A"}
	f := func() bool {
		n := 1 + r.Intn(20)
		entries := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			l := make([]int32, 0, 4)
			for id := int32(0); id < 6; id++ {
				if r.Intn(2) == 0 {
					l = append(l, id)
				}
			}
			if len(l) == 0 {
				l = append(l, int32(r.Intn(6)))
			}
			entries = append(entries, Entry{
				Key:  Key{Text: words[r.Intn(len(words))], Pos: r.Intn(2)},
				List: l,
			})
		}
		a := &Attribute{Entries: append([]Entry(nil), entries...)}
		a.sortEntries()
		want := naivePruneSubstrings(append([]Entry(nil), a.Entries...))
		a.pruneSubstrings()
		if len(a.Entries) != len(want) {
			return false
		}
		for i := range want {
			if a.Entries[i].Key != want[i].Key || !equalLists(a.Entries[i].List, want[i].List) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountWithinIntoReuse(t *testing.T) {
	tab := relation.New("T", "zip")
	for _, v := range []string{"90001", "90002", "90003", "60601"} {
		tab.Append(v)
	}
	profs := relation.ProfileTable(tab)
	a := Build(tab, profs, nil, Options{}).Attrs["zip"]
	rows := []int32{0, 1, 2, 3}
	want := a.CountWithin(rows)
	buf := make([]int32, 0, len(a.Entries))
	for trial := 0; trial < 3; trial++ {
		buf = a.CountWithinInto(buf, rows)
		if len(buf) != len(want) {
			t.Fatalf("len = %d, want %d", len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d: counts[%d] = %d, want %d", trial, i, buf[i], want[i])
			}
		}
	}
}

// TestGramGenerationMatchesNGrams guards the n-gram key pass (gramKeys:
// sorted runs of the rune-normalized dictionary, keys cut from the
// values themselves) against relation.NGrams, the documented
// specification of the gram set — invalid UTF-8 included, whose bad
// bytes read as U+FFFD.
func TestGramGenerationMatchesNGrams(t *testing.T) {
	vals := []string{"90012", "José", "a", "\xff9", "90012", "ab"}
	tb := relation.New("T", "c")
	for _, v := range vals {
		tb.Append(v)
	}
	prof := relation.ColumnProfile{Name: "c", Mode: relation.ModeNGrams}
	inv := Build(tb, []relation.ColumnProfile{prof}, []string{"c"}, Options{DisablePrune: true})

	want := map[Key]bool{}
	for _, v := range vals {
		for _, g := range relation.NGrams(v, 0) {
			want[Key{Text: g}] = true
		}
	}
	got := map[Key]bool{}
	for _, e := range inv.Attrs["c"].Entries {
		got[e.Key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("entry keys = %d, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing gram %+v", k)
		}
	}
}

// intersectInOrder is Filter's specification: the rows of the
// ascending rows that are in the ascending list, by a merge.
func intersectInOrder(rows, list []int32) []int32 {
	out := []int32{}
	i := 0
	for _, r := range rows {
		for i < len(list) && list[i] < r {
			i++
		}
		if i < len(list) && list[i] == r {
			out = append(out, r)
		}
	}
	return out
}

// checkFilter compares Filter with intersectInOrder for every entry of
// a, on all rows and on random ascending subsets of them.
func checkFilter(t *testing.T, r *rand.Rand, a *Attribute, numRows int) {
	t.Helper()
	all := make([]int32, numRows)
	for i := range all {
		all[i] = int32(i)
	}
	for ei, e := range a.Entries {
		subsets := [][]int32{all}
		for k := 0; k < 3; k++ {
			keep := r.Float64()
			var sub []int32
			for _, row := range all {
				if r.Float64() < keep {
					sub = append(sub, row)
				}
			}
			subsets = append(subsets, sub)
		}
		for _, rows := range subsets {
			if got, want := a.Filter(rows, ei), intersectInOrder(rows, e.List); !slices.Equal(got, want) {
				t.Fatalf("%s: Filter(%d rows, entry %d %+v) = %v, want %v", a.Name, len(rows), ei, e.Key, got, want)
			}
		}
	}
}

// TestFilterMatchesIntersection pins Filter, which answers from
// RowEntries, to the in-order intersection with the entry's List: on
// the random columns of the oracle property test in both modes, and on
// every usable column of one batch table.
func TestFilterMatchesIntersection(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		tb, opt := randomColumn(r)
		for _, mode := range []relation.ExtractMode{relation.ModeTokenize, relation.ModeNGrams} {
			prof := relation.ColumnProfile{Name: "c", Mode: mode}
			checkFilter(t, r, Build(tb, []relation.ColumnProfile{prof}, nil, opt).Attrs["c"], tb.NumRows())
		}
	}
	spec, _ := datagen.SpecByID("T1")
	tb, _ := spec.Build(spec.PaperRows/10, 3, 0.01)
	bt := usableColumns(tb)
	inv := Build(bt.t, bt.profs, bt.cols, Options{MinIDs: 5})
	for _, c := range bt.cols {
		checkFilter(t, r, inv.Attrs[c], bt.t.NumRows())
	}
}
