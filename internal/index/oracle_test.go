package index

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pfd/internal/relation"
)

// oracleKeysForDict is the key extraction the index was first built
// with, kept as the specification of the key pass: it makes every key
// of every live dictionary value, tokens at separator boundaries plus
// the whole value, or anchored prefix grams of the rune-decoded value.
func oracleKeysForDict(dict []string, counts []int, prof relation.ColumnProfile, opt Options) [][]Key {
	keysByCode := make([][]Key, len(dict))
	for code, v := range dict {
		if v == "" || counts[code] == 0 {
			continue
		}
		var keys []Key
		switch prof.Mode {
		case relation.ModeTokenize:
			toks, offs := relation.Tokenize(v)
			keys = make([]Key, len(toks), len(toks)+1)
			for i, tok := range toks {
				keys[i] = Key{Text: tok, Pos: offs[i]}
			}
			if len(toks) != 1 || toks[0] != v {
				keys = append(keys, Key{Text: v, Pos: 0})
			}
		default:
			rs := []rune(v)
			maxLen := len(rs)
			if opt.MaxGram > 0 && opt.MaxGram < maxLen {
				maxLen = opt.MaxGram
			}
			keys = make([]Key, maxLen)
			for l := 1; l <= maxLen; l++ {
				keys[l-1] = Key{Text: string(rs[:l])}
			}
		}
		keysByCode[code] = keys
	}
	return keysByCode
}

// oracleSupports hashes every key of every value into one histogram.
func oracleSupports(keysByCode [][]Key, counts []int) map[Key]int32 {
	support := make(map[Key]int32)
	for code, keys := range keysByCode {
		for _, k := range keys {
			support[k] += int32(counts[code])
		}
	}
	return support
}

// oracleKeySupports is KeySupports from the full histogram, filtered
// to the keys reaching MinIDs.
func oracleKeySupports(dict []string, counts []int, prof relation.ColumnProfile, opt Options) map[Key]int32 {
	out := map[Key]int32{}
	for k, s := range oracleSupports(oracleKeysForDict(dict, counts, prof, opt), counts) {
		if opt.MinIDs <= 0 || int(s) >= opt.MinIDs {
			out[k] = s
		}
	}
	return out
}

// oracleBuildAttr is buildAttr by hashing: every key is made, hashed
// into the support histogram, and the survivors hashed again into
// their entry slots.
func oracleBuildAttr(t *relation.Table, col string, prof relation.ColumnProfile, opt Options) *Attribute {
	ci := t.MustCol(col)
	dict, counts, codes := t.Dict(ci), t.DictCounts(ci), t.Codes(ci)
	keysByCode := oracleKeysForDict(dict, counts, prof, opt)
	support := oracleSupports(keysByCode, counts)
	var entries []Entry
	entryOf := make(map[Key]int32)
	survByCode := make([][]int32, len(dict))
	for code, keys := range keysByCode {
		for _, k := range keys {
			s := support[k]
			if opt.MinIDs > 0 && int(s) < opt.MinIDs {
				continue
			}
			ei, ok := entryOf[k]
			if !ok {
				ei = int32(len(entries))
				entryOf[k] = ei
				entries = append(entries, Entry{Key: k, List: make([]int32, 0, s)})
			}
			survByCode[code] = append(survByCode[code], ei)
		}
	}
	if entries == nil {
		entries = []Entry{}
	}
	for row, code := range codes {
		for _, ei := range survByCode[code] {
			entries[ei].List = append(entries[ei].List, int32(row))
		}
	}
	return finishAttr(col, prof.Mode, entries, t.NumRows(), opt)
}

// checkAgainstOracle builds column c of t both ways under opt, in the
// given mode, and fails on any difference in the attribute or the key
// supports.
func checkAgainstOracle(t testing.TB, tb *relation.Table, c string, mode relation.ExtractMode, opt Options) {
	t.Helper()
	prof := relation.ColumnProfile{Name: c, Mode: mode}
	got := Build(tb, []relation.ColumnProfile{prof}, []string{c}, opt).Attrs[c]
	want := oracleBuildAttr(tb, c, prof, opt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s.%s mode %v %+v: Build differs from the oracle\n got %d entries %v\nwant %d entries %v",
			tb.Name, c, mode, opt, len(got.Entries), entryKeys(got), len(want.Entries), entryKeys(want))
	}
	ci := tb.MustCol(c)
	gs := KeySupports(tb.Dict(ci), tb.DictCounts(ci), prof, opt)
	ws := oracleKeySupports(tb.Dict(ci), tb.DictCounts(ci), prof, opt)
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s.%s mode %v %+v: KeySupports = %v, oracle %v", tb.Name, c, mode, opt, gs, ws)
	}
}

func entryKeys(a *Attribute) []Key {
	out := make([]Key, len(a.Entries))
	for i, e := range a.Entries {
		out[i] = e.Key
	}
	return out
}

var oracleOptions = []Options{
	{MinIDs: 5},
	{MinIDs: 5, MaxGram: 3},
	{DisablePrune: true},
	{MinIDs: 2},
	{MinIDs: 2, MaxGram: 1, DisablePrune: true},
}

// TestBuildMatchesOracleBatchTables pins Build to the oracle on
// every usable column of the 15 batch tables: all of a table's columns
// in one Build call, as discovery builds them, then each column alone
// in both extraction modes.
func TestBuildMatchesOracleBatchTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 15 tables")
	}
	for _, bt := range batchTables() {
		profs := map[string]relation.ColumnProfile{}
		for _, p := range bt.profs {
			profs[p.Name] = p
		}
		for _, opt := range oracleOptions {
			inv := Build(bt.t, bt.profs, bt.cols, opt)
			for _, c := range bt.cols {
				if want := oracleBuildAttr(bt.t, c, profs[c], opt); !reflect.DeepEqual(inv.Attrs[c], want) {
					t.Fatalf("%s.%s %+v: Build of all columns differs from the oracle", bt.t.Name, c, opt)
				}
				checkAgainstOracle(t, bt.t, c, relation.ModeTokenize, opt)
				checkAgainstOracle(t, bt.t, c, relation.ModeNGrams, opt)
			}
		}
	}
}

// fragments are the pieces random values are glued from: shared and
// multi-byte prefixes, separators, invalid bytes, and a literal U+FFFD
// that a bad byte must collide with.
var fragments = []string{
	"9", "90", "900", "0", "1", "a", "ab", "A", "Jo", "José", "é", "é",
	"日本", "日", " ", "-", "_", ",", "/", ".", "(", ")", "&",
	"\xff", "\xfe", "\xc3", "\xe6\x97", "�", "\x80",
}

func randomValue(r *rand.Rand) string {
	var sb strings.Builder
	for n := r.Intn(5); n > 0; n-- {
		sb.WriteString(fragments[r.Intn(len(fragments))])
	}
	return sb.String()
}

// randomColumn draws a one-column table "c" of glued fragments, with
// some retired dictionary codes, and random build options.
func randomColumn(r *rand.Rand) (*relation.Table, Options) {
	tb := relation.New("R", "c")
	pool := make([]string, 1+r.Intn(30))
	for i := range pool {
		pool[i] = randomValue(r)
	}
	for n := 1 + r.Intn(80); n > 0; n-- {
		tb.Append(pool[r.Intn(len(pool))])
	}
	// Rewritten cells retire dictionary codes (count 0).
	for n := r.Intn(4); n > 0; n-- {
		tb.Set(r.Intn(tb.NumRows()), "c", pool[r.Intn(len(pool))])
	}
	return tb, Options{MaxGram: r.Intn(5), MinIDs: r.Intn(6), DisablePrune: r.Intn(2) == 0}
}

// TestBuildMatchesOracleRandom is the property test: random columns of
// glued fragments, under random options, in both modes.
func TestBuildMatchesOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 400; trial++ {
		tb, opt := randomColumn(r)
		checkAgainstOracle(t, tb, "c", relation.ModeTokenize, opt)
		checkAgainstOracle(t, tb, "c", relation.ModeNGrams, opt)
	}
}

// FuzzIndexBuild splits the input into values at NUL bytes, so the
// fuzzer controls invalid UTF-8, separators at either end, empty
// values and duplicates (also after U+FFFD normalization), and checks Build and KeySupports against the
// oracle in both modes.
func FuzzIndexBuild(f *testing.F) {
	f.Add("90001\x0090002\x0090003\x0090004\x00900", uint8(0), uint8(2), false)
	f.Add("John Charles\x00John Bosco\x00 Susan-\x00\xffa b\x00�a b", uint8(2), uint8(1), true)
	f.Add("José\x00Jos\xc3\x00\xe6\x97\x00日本\x00\x00-", uint8(3), uint8(0), false)
	f.Fuzz(func(t *testing.T, data string, maxGram, minIDs uint8, noPrune bool) {
		tb := relation.New("F", "c")
		vals := strings.Split(data, "\x00")
		for _, v := range vals {
			tb.Append(v)
		}
		// Rewriting the first cell retires its code if it was unique.
		tb.Set(0, "c", vals[len(vals)-1])
		opt := Options{MaxGram: int(maxGram % 8), MinIDs: int(minIDs % 6), DisablePrune: noPrune}
		checkAgainstOracle(t, tb, "c", relation.ModeTokenize, opt)
		checkAgainstOracle(t, tb, "c", relation.ModeNGrams, opt)
	})
}
