package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pfd/internal/relation"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, id := range []int{0, 63, 64, 129} {
		b.Set(id)
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Error("Has wrong")
	}
	want := []int{0, 63, 64, 129}
	got := b.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v", got)
		}
	}
	sum := 0
	b.ForEach(func(id int) { sum += id })
	if sum != 0+63+64+129 {
		t.Errorf("ForEach sum = %d", sum)
	}
}

func TestBitsetOps(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	a.Set(1)
	a.Set(2)
	a.Set(70)
	b.Set(2)
	b.Set(70)
	b.Set(99)
	and := a.And(b)
	if and.Count() != 2 || !and.Has(2) || !and.Has(70) {
		t.Errorf("And = %v", and.IDs())
	}
	if a.AndCount(b) != 2 {
		t.Errorf("AndCount = %d", a.AndCount(b))
	}
	or := a.Or(b)
	if or.Count() != 4 {
		t.Errorf("Or = %v", or.IDs())
	}
	if !and.SubsetOf(a) || a.SubsetOf(and) {
		t.Error("SubsetOf wrong")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal wrong")
	}
	c := NewBitset(100)
	c.OrInPlace(a)
	if !c.Equal(a) {
		t.Error("OrInPlace wrong")
	}
}

func TestQuickBitsetLaws(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mk := func() *Bitset {
		b := NewBitset(256)
		for i := 0; i < r.Intn(40); i++ {
			b.Set(r.Intn(256))
		}
		return b
	}
	f := func() bool {
		a, b := mk(), mk()
		and, or := a.And(b), a.Or(b)
		// |A| + |B| = |A∩B| + |A∪B|
		if a.Count()+b.Count() != and.Count()+or.Count() {
			return false
		}
		if !and.SubsetOf(a) || !and.SubsetOf(b) || !a.SubsetOf(or) {
			return false
		}
		return and.Equal(b.And(a)) && or.Equal(b.Or(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
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
	b := zip.Lookup(Key{Text: "9000", Pos: 0})
	if b == nil || b.Count() != 4 {
		t.Fatalf("posting for 9000 = %v", b)
	}
	for _, short := range []string{"9", "90", "900"} {
		if zip.Lookup(Key{Text: short, Pos: 0}) != nil {
			t.Errorf("substring pruning must drop %q in favor of 9000", short)
		}
	}
	// Full zips survive as singleton postings.
	if b := zip.Lookup(Key{Text: "90001", Pos: 0}); b == nil || b.Count() != 1 {
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
	john := name.Lookup(Key{Text: "John", Pos: 0})
	if john == nil || john.Count() != 2 || !john.Has(0) || !john.Has(1) {
		t.Fatalf("posting John = %v", john)
	}
	// The singleton token Charles is subsumed by the whole value
	// "John Charles" with the same id set and must be pruned (§4.4).
	if name.Lookup(Key{Text: "Charles", Pos: 5}) != nil {
		t.Error("token subsumed by whole value must be pruned")
	}
	if name.Lookup(Key{Text: "John Charles", Pos: 0}) == nil {
		t.Error("whole-value posting missing for tokenized column")
	}
}

func TestMinIDsFilter(t *testing.T) {
	tb := zipTable()
	profs := relation.ProfileTable(tb)
	inv := Build(tb, profs, []string{"zip"}, Options{MinIDs: 2})
	zip := inv.Attrs["zip"]
	for _, e := range zip.Entries {
		if e.IDs.Count() < 2 {
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

func TestLookupMapBacked(t *testing.T) {
	tab := relation.New("T", "zip")
	for _, v := range []string{"90001", "90002", "90001", "60601"} {
		tab.Append(v)
	}
	profs := relation.ProfileTable(tab)
	inv := Build(tab, profs, nil, Options{})
	a := inv.Attrs["zip"]
	for i := range a.Entries {
		ids := a.Lookup(a.Entries[i].Key)
		if ids == nil || !ids.Equal(a.Entries[i].IDs) {
			t.Fatalf("Lookup(%v) mismatch", a.Entries[i].Key)
		}
	}
	if a.Lookup(Key{Text: "nope", Pos: 3}) != nil {
		t.Error("Lookup of absent key must be nil")
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
