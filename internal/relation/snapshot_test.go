package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestXXH64Vectors pins the inline hash to the published XXH64 test
// vectors (seed 0) — the checksum must stay the real algorithm, not
// drift into a lookalike, or snapshots stop interoperating across
// builds.
func TestXXH64Vectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"asdf", 0x415872f599cea71e},
		// Exercises the 32-byte striped path and the 8/4/1 tails.
		{"Call me Ishmael. Some years ago--never mind how long precisely-",
			0x02a2e85470d6fd96},
	}
	for _, c := range cases {
		if got := xxh64([]byte(c.in)); got != c.want {
			t.Errorf("xxh64(%q) = %#016x, want %#016x", c.in, got, c.want)
		}
	}
}

func snapSampleTable() *Table {
	t := New("Zip", "zip", "city", "state")
	t.Append("90001", "Los Angeles", "CA")
	t.Append("90002", "Los Angeles", "CA")
	t.Append("60601", "Chicago", "IL")
	t.Append("90001", "Los Angeles", "CA") // repeated codes
	t.Append("", "", "")                   // empty strings round-trip
	return t
}

func roundTrip(t *testing.T, tb *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	return got
}

// assertTablesEqual checks full logical equality: name, schema, every
// cell, and the rebuilt dictionary invariants (counts match codes,
// lookup inverts dict).
func assertTablesEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("Name = %q, want %q", got.Name, want.Name)
	}
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("Cols = %v, want %v", got.Cols, want.Cols)
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("Cols = %v, want %v", got.Cols, want.Cols)
		}
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("NumRows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for r := 0; r < want.NumRows(); r++ {
		for ci := range want.Cols {
			if g, w := got.At(r, ci), want.At(r, ci); g != w {
				t.Fatalf("At(%d,%d) = %q, want %q", r, ci, g, w)
			}
		}
	}
	for ci := range got.Cols {
		counts := make([]int, len(got.Dict(ci)))
		for _, code := range got.Codes(ci) {
			counts[code]++
		}
		gotCounts := got.DictCounts(ci)
		for code := range counts {
			if gotCounts[code] != counts[code] {
				t.Fatalf("col %d code %d: counts %d, want %d", ci, code, gotCounts[code], counts[code])
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := snapSampleTable()
	got := roundTrip(t, want)
	assertTablesEqual(t, got, want)

	// The loaded table must be fully functional: intern on append, set,
	// clone — the rebuilt lookup and counts are load-bearing.
	got.Append("90001", "Los Angeles", "CA")
	if got.NumRows() != want.NumRows()+1 {
		t.Fatal("append after load failed")
	}
	got.Set(0, "city", "Compton")
	if got.Value(0, "city") != "Compton" {
		t.Fatal("set after load failed")
	}
}

func TestSnapshotRoundTripEmptyTable(t *testing.T) {
	want := New("Empty", "a", "b")
	got := roundTrip(t, want)
	assertTablesEqual(t, got, want)
}

func TestSnapshotRoundTripAfterSet(t *testing.T) {
	// A table with retired dictionary entries (count 0 after Set) must
	// round-trip: codes reference a dictionary that is larger than the
	// live value set.
	want := snapSampleTable()
	for r := 0; r < want.NumRows(); r++ {
		if want.Value(r, "city") == "Chicago" {
			want.Set(r, "city", "Los Angeles")
		}
	}
	got := roundTrip(t, want)
	assertTablesEqual(t, got, want)
}

func mustSnapshotBytes(tb *Table) []byte {
	var buf bytes.Buffer
	if err := tb.WriteSnapshot(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func snapshotBytes(t *testing.T, tb *Table) []byte {
	t.Helper()
	return mustSnapshotBytes(tb)
}

func TestSnapshotBadMagic(t *testing.T) {
	raw := snapshotBytes(t, snapSampleTable())
	raw[0] = 'X'
	if _, err := loadSnapshotBytes(raw); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("err = %v, want ErrSnapshotMagic", err)
	}
	if _, err := loadSnapshotBytes([]byte("PF")); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("short non-magic err = %v, want ErrSnapshotMagic", err)
	}
}

func TestSnapshotFutureVersion(t *testing.T) {
	raw := snapshotBytes(t, snapSampleTable())
	binary.LittleEndian.PutUint16(raw[4:6], SnapshotVersion+1)
	_, err := loadSnapshotBytes(raw)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
	// The version verdict must come before the checksum verdict: a
	// future format may checksum differently, and the user should be
	// told "upgrade", not "corrupt file".
	if errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("future version misreported as checksum failure: %v", err)
	}
	binary.LittleEndian.PutUint16(raw[4:6], 0)
	if _, err := loadSnapshotBytes(raw); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version 0 err = %v, want ErrSnapshotVersion", err)
	}
}

func TestSnapshotChecksumMismatch(t *testing.T) {
	raw := snapshotBytes(t, snapSampleTable())
	raw[len(raw)-1] ^= 0x40 // flip a bit in the last codes block
	if _, err := loadSnapshotBytes(raw); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("err = %v, want ErrSnapshotChecksum", err)
	}
}

func TestSnapshotTruncated(t *testing.T) {
	raw := snapshotBytes(t, snapSampleTable())
	// Truncation anywhere must produce a typed error, never a panic.
	// Most cuts land as checksum mismatches (the body no longer hashes
	// right); cuts inside the header are reported as truncation.
	for cut := 0; cut < len(raw); cut++ {
		_, err := loadSnapshotBytes(raw[:cut])
		if err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
		if !errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotChecksum) &&
			!errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

// TestSnapshotCorruptStructure re-checksums tampered bodies so the
// structural validation (not the checksum) is what rejects them.
func TestSnapshotCorruptStructure(t *testing.T) {
	tamper := func(name string, mutate func(raw []byte), wantErr error) {
		raw := snapshotBytes(t, snapSampleTable())
		mutate(raw)
		binary.LittleEndian.PutUint64(raw[8:16], xxh64(raw[snapshotHeaderSize:]))
		_, err := loadSnapshotBytes(raw)
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
		}
	}
	// Body offset 0: name length; make it absurd.
	tamper("huge name length", func(raw []byte) {
		binary.LittleEndian.PutUint32(raw[snapshotHeaderSize:], 0xffffffff)
	}, ErrSnapshotTruncated)
	// Row count lives right after name ("Zip" → 4+3 bytes) + ncols (4).
	tamper("absurd row count", func(raw []byte) {
		binary.LittleEndian.PutUint64(raw[snapshotHeaderSize+11:], 1<<60)
	}, ErrSnapshotCorrupt)
	// An out-of-range code in the first codes block. The first column's
	// codes start after its name and dictionary; locate by scanning for
	// the 8-aligned block — simpler: corrupt the final 4 bytes, which
	// sit inside the last column's codes region (3 distinct states, so
	// any value ≥ 3 is out of range).
	tamper("code out of range", func(raw []byte) {
		binary.LittleEndian.PutUint32(raw[len(raw)-8:], 0x7fffffff)
	}, ErrSnapshotCorrupt)
	tamper("value twice in a dictionary", func(raw []byte) {
		copy(raw, dupDictSnapshot()) // same length, so the re-checksum applies
	}, ErrSnapshotCorrupt)
}

// dupDictSnapshot is snapSampleTable's snapshot with the zip dictionary
// entry "90002" rewritten to "90001", which the dictionary already
// holds, and the checksum fixed so only the structural check can
// reject it.
func dupDictSnapshot() []byte {
	raw := mustSnapshotBytes(snapSampleTable())
	i := bytes.Index(raw, []byte("90002"))
	copy(raw[i:], "90001")
	binary.LittleEndian.PutUint64(raw[8:16], xxh64(raw[snapshotHeaderSize:]))
	return raw
}

func FuzzLoadSnapshot(f *testing.F) {
	f.Add(mustSnapshotBytes(snapSampleTable()))
	f.Add([]byte("PFDT"))
	f.Add([]byte{})
	f.Add(mustSnapshotBytes(New("E", "a")))
	f.Add(dupDictSnapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the table must be internally
		// consistent enough to render every cell, and every dictionary
		// must hold each value once.
		tb, err := loadSnapshotBytes(data)
		if err != nil {
			return
		}
		for ci := range tb.cols {
			seen := map[string]bool{}
			for _, v := range tb.cols[ci].dict {
				if seen[v] {
					t.Fatalf("column %q: accepted a dictionary holding %q twice", tb.Cols[ci], v)
				}
				seen[v] = true
			}
		}
		for r := 0; r < tb.NumRows(); r++ {
			for ci := range tb.Cols {
				_ = tb.At(r, ci)
			}
		}
	})
}
