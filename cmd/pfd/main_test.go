package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pfd"
)

// TestErrLineOnePrefix pins the stderr line of a failing run: the
// library's typed errors already begin with "pfd:", so the command
// must not prefix them again, and its own errors get the prefix once.
func TestErrLineOnePrefix(t *testing.T) {
	_, parseErr := pfd.LoadRuleset(strings.NewReader("not a rule\n"))
	var rpe *pfd.RuleParseError
	if !errors.As(parseErr, &rpe) {
		t.Fatalf("LoadRuleset error %v is not a *RuleParseError", parseErr)
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{&pfd.CanceledError{Op: "discover", Rows: 150000, Err: context.Canceled},
			"pfd: discover canceled after 150000 rows: context canceled"},
		{rpe, `pfd: rules line 1: rule "not a rule": want Relation([...] -> [...])`},
		{&pfd.RuleParseError{Path: "r.txt", Line: 3, Err: errors.New("bad cell")},
			"pfd: r.txt:3: bad cell"},
		{errors.New("repair requires -out"), "pfd: repair requires -out"},
	} {
		if got := errLine(c.err); got != c.want {
			t.Errorf("errLine(%T) = %q, want %q", c.err, got, c.want)
		}
	}
}
