package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when
// PFDINFER_RUN_MAIN is set, so a test can drive pfdinfer as a
// subprocess of the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("PFDINFER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestImpliesOwnEscapedRule pins that -implies reads a rule with the
// grammar the rules file is read with: a rule file's own line, whose
// attribute name holds an escaped space, is implied by that file.
func TestImpliesOwnEscapedRule(t *testing.T) {
	const rule = `People([first\ name = (John\ )\A*] -> [gender = M])`
	rules := filepath.Join(t.TempDir(), "esc.pfd")
	if err := os.WriteFile(rules, []byte(rule+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-rules", rules, "-implies", rule)
	cmd.Env = append(os.Environ(), "PFDINFER_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("pfdinfer -implies: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "IMPLIED") {
		t.Fatalf("pfdinfer -implies printed:\n%s", stdout.String())
	}
}

// TestRejectsRepeatedAttribute pins that a rule side naming one
// attribute twice fails the load (exit 2) instead of losing a cell:
// -check mincover used to print the rule with only the last cell.
func TestRejectsRepeatedAttribute(t *testing.T) {
	rules := filepath.Join(t.TempDir(), "dup.pfd")
	if err := os.WriteFile(rules, []byte(`R([a = (\D)\D*, a = (9)\D*] -> [c = M])`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-rules", rules, "-check", "mincover")
	cmd.Env = append(os.Environ(), "PFDINFER_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("pfdinfer -check mincover: %v, want exit 2\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stderr.String(), `LHS names attribute "a" twice`) {
		t.Fatalf("pfdinfer stderr:\n%s", stderr.String())
	}
}
