package plan

import (
	"context"
	"sync"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/pfd"
	"pfd/internal/relation"
)

// minedCase is a mined ruleset and the table it is run over.
type minedCase struct {
	pfds []*pfd.PFD
	t    *relation.Table
}

var (
	minedOnce  sync.Once
	minedCases map[string]minedCase
)

// draw builds datagen table id with rows rows, generator seed seed and
// dirt rate dirt.
func draw(b *testing.B, id string, rows int, seed int64, dirt float64) *relation.Table {
	spec, ok := datagen.SpecByID(id)
	if !ok {
		b.Fatalf("no datagen table %s", id)
	}
	t, _ := spec.Build(rows, seed, dirt)
	return t
}

// mine mines t with the default discovery parameters.
func mine(b *testing.B, t *relation.Table) []*pfd.PFD {
	var pfds []*pfd.PFD
	for _, dep := range discovery.Discover(t.Clone(), discovery.DefaultParams()).Dependencies {
		pfds = append(pfds, dep.PFD)
	}
	if len(pfds) == 0 {
		b.Fatalf("mining %s found no rules", t.Name)
	}
	return pfds
}

// BenchmarkRunMined times one compile-and-run of the planner, as
// batch detection does per call, on mined rulesets drawn the way the
// end-to-end benchmark draws them (generator seed 3 is its seed 1):
//
//   - T13: the batch pipeline's table, 0.1 of Table 7's rows with 1%
//     dirt, mined from itself;
//   - T1: the ingest workload's rules, mined from a clean 6,704-row
//     reference and run over its 20,000-row 2%-dirty stream.
func BenchmarkRunMined(b *testing.B) {
	minedOnce.Do(func() {
		t13 := draw(b, "T13", 10574, 3, 0.01)
		minedCases = map[string]minedCase{
			"T13": {pfds: mine(b, t13), t: t13},
			"T1":  {pfds: mine(b, draw(b, "T1", 6704, 2, 0)), t: draw(b, "T1", 20000, 3, 0.02)},
		}
	})
	for _, id := range []string{"T13", "T1"} {
		c := minedCases[id]
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := New(c.pfds).Run(context.Background(), c.t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
