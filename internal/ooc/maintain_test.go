package ooc

import (
	"math/rand"
	"sync"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/pfd"
)

func zipRules(t *testing.T) ([]*discovery.Dependency, discovery.Params) {
	t.Helper()
	tbl, _ := datagen.ZipState(600, 1)
	res := discovery.Discover(tbl, discovery.DefaultParams())
	if len(res.Dependencies) == 0 {
		t.Fatal("no rules discovered on clean zip/state")
	}
	return res.Dependencies, res.Params
}

func depPFDs(deps []*discovery.Dependency) []*pfd.PFD {
	out := make([]*pfd.PFD, len(deps))
	for i, d := range deps {
		out[i] = d.PFD
	}
	return out
}

func TestMaintainerFoldAndDemote(t *testing.T) {
	deps, params := zipRules(t)
	m := NewMaintainer(depPFDs(deps), params)

	// Clean batches: support grows, no violations, everything active.
	clean, _ := datagen.ZipState(400, 2)
	m.FoldTable(clean)
	h := m.Health()
	if len(h) != len(deps) {
		t.Fatalf("Health has %d entries for %d rules", len(h), len(deps))
	}
	for _, rh := range h {
		if !rh.Active {
			t.Fatalf("clean fold demoted %s", rh.Embedded)
		}
		if rh.Violations != 0 {
			t.Fatalf("clean fold charged %d violations to %s", rh.Violations, rh.Embedded)
		}
	}
	if len(m.Active()) != len(deps) {
		t.Fatalf("Active() = %d rules, want %d", len(m.Active()), len(deps))
	}

	// Heavily dirty batches: violations overwhelm the δ-allowance and
	// demote without re-mining.
	for i := 0; i < 20; i++ {
		dirty, _ := datagen.ZipState(400, int64(10+i))
		datagen.InjectErrors(dirty, "state", 0.6, false, int64(30+i))
		m.FoldTable(dirty)
	}
	demoted := 0
	for _, rh := range m.Health() {
		if !rh.Active {
			demoted++
		}
	}
	if demoted == 0 {
		t.Fatal("no rule demoted after sustained heavy violations")
	}
	if len(m.Active()) != len(deps)-demoted {
		t.Fatalf("Active() = %d, Health says %d demoted of %d", len(m.Active()), demoted, len(deps))
	}
}

func TestMaintainerObserve(t *testing.T) {
	deps, params := zipRules(t)
	m := NewMaintainer(depPFDs(deps), params)
	p := deps[0].PFD

	m.ObserveRows(100)
	// Hammer one rule past its allowance; counters are concurrency-safe.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.ObserveViolation(p)
			}
		}()
	}
	wg.Wait()

	found := false
	for _, rh := range m.Health() {
		if rh.Embedded != deps[0].Embedded() {
			continue
		}
		found = true
		if rh.Violations != 200 {
			t.Fatalf("violations = %d, want 200", rh.Violations)
		}
		if rh.Active {
			t.Fatal("rule survived 200 violations on 200 support")
		}
	}
	if !found {
		t.Fatal("rule missing from Health")
	}

	// A deserialized copy of a tracked rule (different pointer, same
	// embedded FD) still lands; a foreign rule is ignored.
	clone := pfd.MustNew(p.Relation, p.LHS, p.RHS, p.Tableau...)
	m.ObserveViolation(clone)
	foreign := pfd.MustNew("other", []string{"nope"}, "nah", p.Tableau[0])
	before := len(m.Health())
	m.ObserveViolation(foreign)
	if len(m.Health()) != before {
		t.Fatal("foreign rule changed tracking")
	}
}

func TestMaintainerSeed(t *testing.T) {
	deps, params := zipRules(t)
	m := NewMaintainer(depPFDs(deps), params)
	m.Seed(RuleHealth{Embedded: deps[0].Embedded(), Support: 1000, Violations: 3, Active: true})
	for _, rh := range m.Health() {
		if rh.Embedded == deps[0].Embedded() {
			if rh.Support != 1000 || rh.Violations != 3 || !rh.Active {
				t.Fatalf("seed not applied: %+v", rh)
			}
			return
		}
	}
	t.Fatal("seeded rule missing")
}

// TestFoldTableCounters pins FoldTable's per-batch accounting on random
// tables: support is the number of rows the row-at-a-time MatchesLHS
// accepts under some tableau row, and violations the length of the
// rule's Violations, which FoldTable counts without building them.
func TestFoldTableCounters(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, id := range []string{"T1", "T5", "T13"} {
		spec, _ := datagen.SpecByID(id)
		ref, _ := spec.Build(500, 1, 0)
		var pfds []*pfd.PFD
		for _, dep := range discovery.Discover(ref, discovery.DefaultParams()).Dependencies {
			pfds = append(pfds, dep.PFD)
		}
		if len(pfds) == 0 {
			t.Fatalf("mining %s found no rules", id)
		}
		for trial := 0; trial < 8; trial++ {
			tb, _ := spec.Build(r.Intn(400), r.Int63(), 0.3*r.Float64())
			m := NewMaintainer(pfds, discovery.DefaultParams())
			m.FoldTable(tb)
			health := map[string]RuleHealth{}
			for _, h := range m.Health() {
				health[h.Embedded] = h
			}
			for _, p := range pfds {
				h := health[embeddedOf(p)]
				var support int64
				for id := 0; id < tb.NumRows(); id++ {
					for ri := range p.Tableau {
						if p.MatchesLHS(tb, ri, id) {
							support++
							break
						}
					}
				}
				violations := int64(len(p.Violations(tb)))
				if h.Support != support || h.Violations != violations {
					t.Fatalf("%s trial %d rule %s: FoldTable counted support %d, violations %d; want %d, %d",
						id, trial, h.Embedded, h.Support, h.Violations, support, violations)
				}
			}
		}
	}
}
