package pfd_test

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pfd"
)

// zipTable builds the paper's Table 2 scenario (scaled past the
// support thresholds) with the seeded error s4[city].
func zipTable() *pfd.Table {
	t := pfd.NewTable("Zip", "zip", "city")
	for _, z := range []string{"90001", "90002", "90003", "90005", "90011", "90012"} {
		t.Append(z, "Los Angeles")
	}
	for _, z := range []string{"60601", "60602", "60603", "60604", "60605", "60607"} {
		t.Append(z, "Chicago")
	}
	t.Append("90004", "New York") // s4's error
	return t
}

// ExampleDiscover mines the paper's Zip -> City dependency from Table 2
// and repairs the seeded error, with the v2 context/Source/iterator
// API end to end.
func ExampleDiscover() {
	ctx := context.Background()
	src := pfd.FromTable(zipTable())

	disc, err := pfd.Discover(ctx, src,
		pfd.WithMinSupport(5), pfd.WithDelta(0.15), pfd.WithMinCoverage(0.10))
	if err != nil {
		panic(err)
	}
	for d := range disc.All() {
		if d.RHS == "city" {
			fmt.Println(d.Embedded(), "variable:", d.Variable)
		}
	}
	det, err := pfd.Detect(ctx, src, disc.PFDs())
	if err != nil {
		panic(err)
	}
	for f := range det.All() {
		fmt.Printf("%s: %q -> %q\n", f.Cell, f.Observed, f.Proposed)
	}
	// Output:
	// [zip] -> [city] variable: true
	// r12[city]: "New York" -> "Los Angeles"
}

// ExampleDiscover_context shows the cancellation and progress
// machinery: a discovery over a two-level lattice walk reports each
// completed level, and canceling the context from the progress
// callback stops the walk deterministically with a typed
// *CanceledError that unwraps to context.Canceled.
func ExampleDiscover_context() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	_, err := pfd.Discover(ctx, pfd.FromTable(zipTable()),
		pfd.WithMinSupport(5), pfd.WithDelta(0.15), pfd.WithMaxLHS(2),
		pfd.WithDiscoverProgress(func(p pfd.DiscoveryProgress) {
			fmt.Printf("level %d/%d done (%d dependencies)\n",
				p.Level, p.MaxLevel, p.Dependencies)
			if p.Level == 1 {
				cancel() // enough: stop before the multi-attribute level
			}
		}))
	var ce *pfd.CanceledError
	fmt.Println("canceled:", errors.As(err, &ce) && errors.Is(err, context.Canceled))
	// Output:
	// level 1/2 done (2 dependencies)
	// canceled: true
}

// ExampleValidate checks a CSV stream against a hand-built PFD with
// streaming consensus semantics: the third tuple deviates from the
// majority state of its zip-prefix group.
func ExampleValidate() {
	psi, _ := pfd.NewPFD("Zip", []string{"zip"}, "state",
		pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(\D{3})\D{2}`))},
			RHS: pfd.Wildcard(),
		},
	)
	stream := strings.NewReader("zip,state\n90001,CA\n90002,CA\n90003,WA\n")

	val, err := pfd.Validate(context.Background(),
		pfd.FromCSV("stream", stream), []*pfd.PFD{psi})
	if err != nil {
		panic(err)
	}
	fmt.Println("checked", val.Rows(), "tuples")
	for v := range val.Live() {
		fmt.Println(v.Cell, "expected", v.Expected)
	}
	// Output:
	// checked 3 tuples
	// r2[state] expected CA
}

// ExamplePattern_Equivalent shows constrained-pattern equivalence: two
// full names are equivalent under λ4's pattern iff their first names
// agree.
func ExamplePattern_Equivalent() {
	p := pfd.MustParsePattern(`(\LU\LL*\ )\A*`)
	fmt.Println(p.Equivalent("John Charles", "John Bosco"))
	fmt.Println(p.Equivalent("John Charles", "Susan Orlean"))
	// Output:
	// true
	// false
}

// ExampleNewPFD builds ψ1 of Figure 2 by hand and checks Table 1.
func ExampleNewPFD() {
	t := pfd.NewTable("Name", "name", "gender")
	t.Append("John Charles", "M")
	t.Append("Susan Boyle", "M") // should be F

	psi, _ := pfd.NewPFD("Name", []string{"name"}, "gender",
		pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(Susan\ )\A*`))},
			RHS: pfd.Pat(pfd.ConstantPattern("F")),
		},
	)
	for _, v := range psi.Violations(t) {
		fmt.Println(v.ErrorCell, "expected", v.Expected)
	}
	// Output:
	// r1[gender] expected F
}

// ExampleImplies demonstrates Section 3 reasoning: transitivity through
// the PFD-closure.
func ExampleImplies() {
	john, _ := pfd.ParseRule(`Name([name = (John\ )\A*] -> [gender = M])`)
	title, _ := pfd.ParseRule(`Name([gender = M] -> [title = Mr])`)
	goal, _ := pfd.ParseRule(`Name([name = (John\ )\A*] -> [title = Mr])`)
	fmt.Println(pfd.Implies([]*pfd.Rule{john, title}, goal))
	// Output:
	// true
}

// ExampleNewStreamEngineContext validates a stream against a mined
// constraint through the manually driven engine: concurrent-producer
// Submit and a deterministic snapshot report.
// (Source-driven runs should use Validate instead.)
func ExampleNewStreamEngineContext() {
	psi, _ := pfd.NewPFD("Zip", []string{"zip"}, "state",
		pfd.TableauRow{
			LHS: []pfd.TableauCell{pfd.Pat(pfd.MustParsePattern(`(\D{3})\D{2}`))},
			RHS: pfd.Wildcard(),
		},
	)
	eng := pfd.NewStreamEngineContext(context.Background(), []*pfd.PFD{psi})
	for _, t := range []map[string]string{
		{"zip": "90001", "state": "CA"},
		{"zip": "90002", "state": "CA"},
		{"zip": "90003", "state": "WA"},
	} {
		if err := eng.Submit(t); err != nil {
			panic(err)
		}
	}
	rep := eng.Close()
	for _, v := range rep.Violations {
		fmt.Println(v.Cell, "expected", v.Expected)
	}
	// Output:
	// r2[state] expected CA
}
