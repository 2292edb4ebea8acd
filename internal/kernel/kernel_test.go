package kernel

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// naiveMatch is the scalar reference for the bitmap kernels: one bool
// per row.
func naiveMatch(codes []uint32, flags []bool) []bool {
	out := make([]bool, len(codes))
	for r, c := range codes {
		out[r] = flags[c]
	}
	return out
}

func bitmapToBools(words []uint64, n int) []bool {
	out := make([]bool, n)
	for r := range out {
		out[r] = words[r>>6]>>(uint(r)&63)&1 == 1
	}
	return out
}

func randomCodes(rng *rand.Rand, n, distinct int) []uint32 {
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(rng.Intn(distinct))
	}
	return codes
}

func TestTailMask(t *testing.T) {
	cases := map[int]uint64{
		0:   ^uint64(0),
		1:   1,
		63:  (1 << 63) - 1,
		64:  ^uint64(0),
		65:  1,
		100: (1 << 36) - 1,
		128: ^uint64(0),
	}
	for n, want := range cases {
		if got := TailMask(n); got != want {
			t.Errorf("TailMask(%d) = %#x, want %#x", n, got, want)
		}
	}
}

func TestWords(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3} {
		if got := Words(n); got != want {
			t.Errorf("Words(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestMatchBitmapSizes covers zero rows, non-64-multiple row counts,
// exact word boundaries, and single-distinct columns, checking both the
// per-row bits and that tail bits beyond n stay clear.
func TestMatchBitmapSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 100, 127, 128, 129, 1000} {
		for _, distinct := range []int{1, 2, 7} {
			codes := randomCodes(rng, n, distinct)
			flags := make([]bool, distinct)
			ids := make([]int32, distinct)
			for i := range flags {
				flags[i] = rng.Intn(2) == 0
				if flags[i] {
					ids[i] = int32(i)
				} else {
					ids[i] = -1
				}
			}
			want := naiveMatch(codes, flags)

			dst := make([]uint64, Words(n))
			// Dirty the destination to prove it is fully overwritten.
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			MatchBitmapSigned(dst, codes, ids)
			if got := bitmapToBools(dst, n); !equalBools(got, want) {
				t.Fatalf("n=%d distinct=%d: MatchBitmapSigned mismatch", n, distinct)
			}
			checkTail(t, dst, n)

			if got, want := PopcountSum(dst), countTrue(want); got != want {
				t.Fatalf("n=%d: PopcountSum = %d, want %d", n, got, want)
			}
		}
	}
}

func checkTail(t *testing.T, words []uint64, n int) {
	t.Helper()
	if n%WordBits == 0 || len(words) == 0 {
		return
	}
	if ghost := words[len(words)-1] &^ TailMask(n); ghost != 0 {
		t.Fatalf("n=%d: ghost tail bits %#x", n, ghost)
	}
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCombinators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(5) + 1
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()
			b[i] = rng.Uint64()
		}
		dst := make([]uint64, n)

		And(dst, a, b)
		for i := range dst {
			if dst[i] != a[i]&b[i] {
				t.Fatal("And mismatch")
			}
		}
		oc := append([]uint64(nil), a...)
		OrInPlace(oc, b)
		for i := range oc {
			if oc[i] != a[i]|b[i] {
				t.Fatal("OrInPlace mismatch")
			}
		}
	}
}

// appendIDs appends the positions of the set bits of words, in
// ascending order, to dst and returns it: the oracle reading SetSorted's
// bitmap back.
func appendIDs(dst []int, words []uint64) []int {
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i*WordBits+bits.TrailingZeros64(w))
		}
	}
	return dst
}

func TestSetSortedAppendIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300)
		var ids []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, int32(i))
			}
		}
		words := make([]uint64, Words(n))
		SetSorted(words, ids)

		got := appendIDs(nil, words)
		if len(got) != len(ids) {
			t.Fatalf("appendIDs: got %d ids, want %d", len(got), len(ids))
		}
		for i := range got {
			if got[i] != int(ids[i]) {
				t.Fatalf("appendIDs[%d] = %d, want %d", i, got[i], ids[i])
			}
		}
		if got := PopcountSum(words); got != len(ids) {
			t.Fatalf("PopcountSum = %d, want %d", got, len(ids))
		}
	}
}

// naiveGather is the scalar reference for the gather kernels.
func naiveGather(codes []uint32, ids []int32) (sids []int32, groups map[int32][]int32) {
	groups = map[int32][]int32{}
	for r, code := range codes {
		sid := ids[code]
		if sid < 0 {
			continue
		}
		if _, ok := groups[sid]; !ok {
			sids = append(sids, sid)
		}
		groups[sid] = append(groups[sid], int32(r))
	}
	// Kernel emits groups in ascending span-id order.
	for i := 1; i < len(sids); i++ {
		for j := i; j > 0 && sids[j-1] > sids[j]; j-- {
			sids[j-1], sids[j] = sids[j], sids[j-1]
		}
	}
	return sids, groups
}

func checkGroups(t *testing.T, g *Groups, sids []int32, groups map[int32][]int32) {
	t.Helper()
	if g.Len() != len(sids) {
		t.Fatalf("Groups.Len = %d, want %d", g.Len(), len(sids))
	}
	for i := 0; i < g.Len(); i++ {
		if g.Sid(i) != sids[i] {
			t.Fatalf("group %d: sid %d, want %d", i, g.Sid(i), sids[i])
		}
		want := groups[sids[i]]
		got := g.Rows(i)
		if len(got) != len(want) {
			t.Fatalf("group %d: %d rows, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("group %d row %d: %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestGatherGroupsCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var g Groups // reused across trials to exercise scratch reuse
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(400)
		distinct := rng.Intn(10) + 1
		codes := randomCodes(rng, n, distinct)
		ids := make([]int32, distinct)
		next := int32(0)
		for i := range ids {
			if rng.Intn(3) == 0 {
				ids[i] = -1
			} else {
				ids[i] = next
				// Several codes may share a span id (span interning).
				if rng.Intn(2) == 0 {
					next++
				}
			}
		}
		wantSids, wantGroups := naiveGather(codes, ids)

		GatherGroupsCodes(&g, codes, ids, nil)
		checkGroups(t, &g, wantSids, wantGroups)

		// Weighted histogram path: DictCounts-style weights must produce
		// the identical result when weights equal the live code counts.
		weights := make([]int, distinct)
		for _, c := range codes {
			weights[c]++
		}
		GatherGroupsCodes(&g, codes, ids, weights)
		checkGroups(t, &g, wantSids, wantGroups)
	}
}

func TestAndMatchBitmapSigned(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		codesA := randomCodes(rng, n, 5)
		codesB := randomCodes(rng, n, 5)
		idsA := make([]int32, 5)
		idsB := make([]int32, 5)
		for i := range idsA {
			idsA[i] = int32(rng.Intn(3)) - 1
			idsB[i] = int32(rng.Intn(3)) - 1
		}
		want := make([]uint64, Words(n))
		tmp := make([]uint64, Words(n))
		MatchBitmapSigned(want, codesA, idsA)
		MatchBitmapSigned(tmp, codesB, idsB)
		And(want, want, tmp)

		got := make([]uint64, Words(n))
		MatchBitmapSigned(got, codesA, idsA)
		AndMatchBitmapSigned(got, codesB, idsB)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d word %d: %#x, want %#x", n, i, got[i], want[i])
			}
		}
	}
}

func TestGatherGroupsZeroRows(t *testing.T) {
	var g Groups
	GatherGroupsCodes(&g, nil, []int32{0, 1, -1}, nil)
	if g.Len() != 0 {
		t.Fatalf("zero-row gather: Len = %d, want 0", g.Len())
	}
	// Zero dictionary too (fresh table with no rows appended).
	GatherGroupsCodes(&g, nil, nil, nil)
	if g.Len() != 0 {
		t.Fatalf("zero-dict gather: Len = %d, want 0", g.Len())
	}
}

// TestGatherGroupsPostings pins the posting gather to the dense
// counting-sort gather over random code vectors: the hits expand to a
// dense span-id vector, and both gathers must give the same groups,
// span ids and ascending rows. Span ids are drawn so that one span
// often covers several codes whose rows interleave, and retired codes
// (no rows) are among the hits.
func TestGatherGroupsPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dense, sparse Groups // reused across trials to exercise scratch reuse
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(3000)
		distinct := rng.Intn(12) + 1
		codes := randomCodes(rng, n, distinct)
		if trial%2 == 1 {
			// Skewed: code 0 holds most rows, so a span over rare codes
			// is sparser than one row per 64 and takes the comparison
			// sort, and one with code 0 takes the bitmap.
			for i := range codes {
				if rng.Intn(50) > 0 {
					codes[i] = 0
				}
			}
		}
		counts := make([]int, distinct)
		for _, c := range codes {
			counts[c]++
		}
		post := BuildPostings(codes, counts)
		for code := range counts {
			want := []int32{}
			for r, c := range codes {
				if c == uint32(code) {
					want = append(want, int32(r))
				}
			}
			if got := post.Rows(uint32(code)); !slices.Equal(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("trial %d: Rows(%d) = %v, want %v", trial, code, got, want)
			}
		}

		// GatherGroupsCodes sizes its histogram by the dictionary, as
		// interning guarantees: no more spans than codes.
		numSids := 1 + rng.Intn(min(4, distinct))
		ids := make([]int32, distinct)
		var hits []Hit
		for code := range ids {
			ids[code] = -1
			if rng.Intn(3) > 0 {
				ids[code] = int32(rng.Intn(numSids))
				hits = append(hits, Hit{Code: uint32(code), Sid: ids[code]})
			}
		}
		GatherGroupsCodes(&dense, codes, ids, counts)
		GatherGroupsPostings(&sparse, post, hits, numSids)
		if sparse.Len() != dense.Len() {
			t.Fatalf("trial %d: %d groups, want %d", trial, sparse.Len(), dense.Len())
		}
		for i := 0; i < dense.Len(); i++ {
			if sparse.Sid(i) != dense.Sid(i) || !slices.Equal(sparse.Rows(i), dense.Rows(i)) {
				t.Fatalf("trial %d group %d: sid %d rows %v, want sid %d rows %v",
					trial, i, sparse.Sid(i), sparse.Rows(i), dense.Sid(i), dense.Rows(i))
			}
		}
	}
}
