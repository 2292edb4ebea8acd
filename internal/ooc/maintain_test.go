package ooc

import (
	"sync"
	"testing"

	"pfd/internal/datagen"
	"pfd/internal/discovery"
	"pfd/internal/pfd"
	"pfd/internal/relation"
	"pfd/internal/stream"
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

// observe streams tb through eng, whose violation callback feeds m
// before SubmitTable returns, and accounts its rows.
func observe(t *testing.T, m *Maintainer, eng *stream.Engine, tb *relation.Table) {
	t.Helper()
	if err := eng.SubmitTable(tb); err != nil {
		t.Fatal(err)
	}
	m.ObserveRows(tb.NumRows())
}

func TestMaintainerFoldAndDemote(t *testing.T) {
	deps, params := zipRules(t)
	m := NewMaintainer(depPFDs(deps), params)
	eng := stream.New(depPFDs(deps), stream.Options{
		DiscardViolations: true,
		OnViolation: func(v pfd.StreamViolation) {
			if v.NewTuple {
				m.ObserveViolation(v.PFD)
			}
		},
	})
	defer eng.Close()

	// A clean batch: no violations, everything active.
	clean, _ := datagen.ZipState(400, 2)
	observe(t, m, eng, clean)
	h := m.Health()
	if len(h) != len(deps) {
		t.Fatalf("Health has %d entries for %d rules", len(h), len(deps))
	}
	for _, rh := range h {
		if !rh.Active {
			t.Fatalf("clean batch demoted %s", rh.Embedded)
		}
		if rh.Violations != 0 {
			t.Fatalf("clean batch charged %d violations to %s", rh.Violations, rh.Embedded)
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
		observe(t, m, eng, dirty)
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
