package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pfd"
)

// TestMain runs the command itself instead of the tests when
// PFD_RUN_MAIN is set, so a test can drive pfd as a subprocess of the
// test binary.
func TestMain(m *testing.M) {
	if os.Getenv("PFD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// TestDetectRejectsRepeatedAttribute pins that pfd detect refuses a
// rule side naming one attribute twice, naming the attribute, rather
// than detecting with a rule that holds both cells.
func TestDetectRejectsRepeatedAttribute(t *testing.T) {
	dir := t.TempDir()
	rules, data := filepath.Join(dir, "dup.pfd"), filepath.Join(dir, "d.csv")
	if err := os.WriteFile(rules, []byte(`R([a = (\D)\D*, a = (9)\D*] -> [c = M])`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, []byte("a,c\n901,M\n902,F\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "detect", "-in", data, "-rules", rules)
	cmd.Env = append(os.Environ(), "PFD_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("pfd detect: %v, want exit 1\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stderr.String(), `LHS names attribute "a" twice`) {
		t.Fatalf("pfd detect stderr:\n%s", stderr.String())
	}
}
