package plan

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/pattern"
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

// BenchmarkRulesetT13 rates the planner at ruleset scale on T13 at 0.1
// of Table 7's rows. The rulesets replicate five serving-style rule
// families as fresh PFD objects sharing compiled patterns, as a
// tenant's parsed ruleset does, plus a dead-constant family the
// short-circuit pass retires; rulesN differs from rules10 only in how
// many rules ride each shared LHS group. Per size, Build times plan
// construction (build_us, the <100µs bar), Independent the per-rule
// Violations loop, and Validate shared-group execution through a warm
// plan, with speedup_vs_independent (the ≥3× bar at 100 rules) taken
// against the Independent run just before it.
func BenchmarkRulesetT13(b *testing.B) {
	t := draw(b, "T13", 10574, 1, 0.01)
	prefix := pattern.MustParse(`(\LU+)\-\D*`)
	sem := pattern.MustParse(`\LU+(\D{4})`)
	dead := pattern.Constant("no-such-dept")
	wild := pfd.Row{LHS: []pfd.Cell{pfd.Wildcard()}, RHS: pfd.Wildcard()}
	base := []*pfd.PFD{
		pfd.MustNew("T13", []string{"course_id"}, "dept", wild),
		pfd.MustNew("T13", []string{"semester"}, "year",
			pfd.Row{LHS: []pfd.Cell{pfd.Pat(sem)}, RHS: pfd.Wildcard()}),
		pfd.MustNew("T13", []string{"course_id"}, "dept",
			pfd.Row{LHS: []pfd.Cell{pfd.Pat(prefix)}, RHS: pfd.Wildcard()}),
		pfd.MustNew("T13", []string{"dept"}, "course_id",
			pfd.Row{LHS: []pfd.Cell{pfd.Wildcard()}, RHS: pfd.Pat(prefix)}),
		pfd.MustNew("T13", []string{"dept"}, "grade",
			pfd.Row{LHS: []pfd.Cell{pfd.Pat(dead)}, RHS: pfd.Wildcard()}),
	}
	for _, n := range []int{10, 100, 1000} {
		pfds := make([]*pfd.PFD, n)
		for i := range pfds {
			p := base[i%len(base)]
			pfds[i] = pfd.MustNew(p.Relation, p.LHS, p.RHS, p.Tableau...)
		}
		b.Run(fmt.Sprintf("rules%d", n), func(b *testing.B) {
			b.Run("Build", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					New(pfds)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "build_us")
			})
			var indepNs float64
			b.Run("Independent", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, p := range pfds {
						p.Violations(t)
					}
				}
				indepNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			})
			b.Run("Validate", func(b *testing.B) {
				pl := New(pfds)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl.Violations(t)
				}
				if indepNs > 0 {
					b.ReportMetric(indepNs/(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "speedup_vs_independent")
				}
			})
		})
	}
}
