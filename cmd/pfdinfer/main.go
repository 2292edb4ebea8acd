// Command pfdinfer runs the Section 3 reasoning tasks over a ruleset:
// consistency checking (Theorem 3), implication with proof output
// (Theorem 1/2), counterexample search, and minimal cover.
//
// The rules file is the shared ruleset artifact (the same format
// `pfd discover -rules` writes and `pfd detect`/`pfdstream` read):
// one constraint per line in the paper's λ-notation, '#' comments,
// or the versioned JSON codec — pfd.LoadRulesetFile accepts both.
//
//	# first names determine gender
//	Name([name = (John\ )\A*] -> [gender = M])
//	Name([gender = M] -> [title = Mr])
//
// The -implies goal is read with the same grammar as the rules file
// (pfd.ParseRule, over the one λ-notation line parser): names escape
// spaces and delimiters the same way, a bare attribute means '_', and
// the goal may list several RHS attributes.
//
// Usage:
//
//	pfdinfer -rules rules.pfd -check consistency
//	pfdinfer -rules rules.pfd -check mincover > minimal.pfd
//	pfdinfer -rules rules.pfd -implies 'Name([name = (John\ )\A*] -> [title = Mr])'
//
// Exit status: 0 on a positive answer (consistent / implied / cover
// written), 1 on a negative one, 2 on usage errors — including an
// empty or missing rules file.
package main

import (
	"flag"
	"fmt"
	"os"

	"pfd"
)

func main() {
	rulesPath := flag.String("rules", "", "path to the ruleset file (required; text or JSON codec)")
	check := flag.String("check", "", "task: 'consistency' or 'mincover'")
	implies := flag.String("implies", "", "goal rule to test for implication")
	flag.Parse()

	if *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "pfdinfer: -rules is required")
		os.Exit(2)
	}
	rs, err := pfd.LoadRulesetFile(*rulesPath)
	if err != nil {
		// Parse errors carry the file path and 1-based line number
		// (*pfd.RuleParseError) via the shared loader.
		fmt.Fprintln(os.Stderr, "pfdinfer:", err)
		os.Exit(2)
	}
	if rs.Len() == 0 {
		fmt.Fprintf(os.Stderr, "pfdinfer: %s holds no rules\n", *rulesPath)
		os.Exit(2)
	}
	// Informational, to stderr: stdout carries the task's answer (and
	// for -check mincover, the cover artifact itself).
	rules := rs.Rules()
	fmt.Fprintf(os.Stderr, "pfdinfer: loaded %d rules from %s\n", len(rules), *rulesPath)

	switch {
	case *check == "consistency":
		witness, ok := rs.Consistent()
		if !ok {
			fmt.Println("INCONSISTENT: no single-tuple witness exists (Theorem 3 small-model search)")
			os.Exit(1)
		}
		fmt.Println("CONSISTENT; witness tuple:")
		for a, v := range witness {
			fmt.Printf("  %s = %q\n", a, v)
		}
	case *check == "mincover":
		cover, err := rs.MinimalCover()
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "pfdinfer: minimal cover keeps %d of %d rules\n", len(cover.Rules()), len(rules))
		if _, err := cover.WriteTo(os.Stdout); err != nil {
			fail(err)
		}
	case *implies != "":
		goal, err := pfd.ParseRule(*implies)
		if err != nil {
			fail(err)
		}
		if proof := rs.Prove(goal); proof != nil {
			fmt.Println("IMPLIED; proof:")
			fmt.Print(proof)
			return
		}
		if ce := pfd.FindCounterexample(rules, goal); ce != nil {
			fmt.Println("NOT IMPLIED; two-tuple counterexample (satisfies Ψ, violates goal):")
			printTuple("t1", ce.T1)
			printTuple("t2", ce.T2)
			os.Exit(1)
		}
		fmt.Println("UNDECIDED: not derivable by the closure and no counterexample in the small-model pool")
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "pfdinfer: specify -check consistency, -check mincover, or -implies '<rule>'")
		os.Exit(2)
	}
}

func printTuple(name string, t map[string]string) {
	fmt.Printf("  %s:", name)
	for a, v := range t {
		fmt.Printf(" %s=%q", a, v)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pfdinfer:", err)
	os.Exit(1)
}
