package discovery

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pfd/internal/relation"
)

// plantedTable builds a random table with a planted prefix dependency
// code -> label (first 2 runes determine the label) plus a noise column.
func plantedTable(r *rand.Rand, rows int) *relation.Table {
	prefixes := []string{"AA", "BB", "CC", "DD"}
	labels := map[string]string{"AA": "alpha", "BB": "beta", "CC": "gamma", "DD": "delta"}
	t := relation.New("P", "code", "label", "noise")
	for i := 0; i < rows; i++ {
		p := prefixes[r.Intn(len(prefixes))]
		t.Append(
			fmt.Sprintf("%s%03d", p, r.Intn(1000)),
			labels[p],
			fmt.Sprintf("n%d", r.Intn(5)),
		)
	}
	return t
}

func TestQuickPlantedDependencyAlwaysFound(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		rows := 60 + r.Intn(80)
		tb := plantedTable(r, rows)
		res := Discover(tb, Params{MinSupport: 4, Delta: 0.05, MinCoverage: 0.2})
		for _, d := range res.Dependencies {
			if len(d.LHS) == 1 && d.LHS[0] == "code" && d.RHS == "label" {
				return true
			}
		}
		t.Logf("planted dep missing in %v", embeddeds(res))
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDiscoveredPFDsHoldWithinDelta(t *testing.T) {
	// Soundness of the decision function: every discovered PFD violates
	// at most the δ-allowance of its covered rows on the training table.
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		rows := 60 + r.Intn(60)
		tb := plantedTable(r, rows)
		// Flip a couple of labels to exercise tolerance.
		for k := 0; k < 2; k++ {
			tb.SetAt(r.Intn(rows), 1, "flip")
		}
		params := Params{MinSupport: 4, Delta: 0.10, MinCoverage: 0.2}
		res := Discover(tb, params)
		for _, d := range res.Dependencies {
			vs := d.PFD.Violations(tb)
			allowedTotal := params.allowed(d.Support) + len(d.PFD.Tableau)
			if len(vs) > allowedTotal {
				t.Logf("dep %s has %d violations for support %d", d.Embedded(), len(vs), d.Support)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDiscoveryDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func() bool {
		tb := plantedTable(r, 80)
		a := Discover(tb, DefaultParams())
		b := Discover(tb, DefaultParams())
		if len(a.Dependencies) != len(b.Dependencies) {
			return false
		}
		for i := range a.Dependencies {
			if a.Dependencies[i].PFD.String() != b.Dependencies[i].PFD.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubsetSorted pins tryCandidate's redundancy test against a
// set-membership oracle on random ascending row lists over a small id
// range, so subsets, equal lists and disjoint lists all occur.
func TestQuickSubsetSorted(t *testing.T) {
	draw := func(r *rand.Rand) []int32 {
		var out []int32
		for id := int32(0); id < 12; id++ {
			if r.Intn(3) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := draw(r), draw(r)
		if r.Intn(2) == 0 { // make a ⊆ b likely
			a = a[:0]
			for _, id := range b {
				if r.Intn(2) == 0 {
					a = append(a, id)
				}
			}
		}
		in := map[int32]bool{}
		for _, id := range b {
			in[id] = true
		}
		want := true
		for _, id := range a {
			want = want && in[id]
		}
		return subsetSorted(a, b) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
