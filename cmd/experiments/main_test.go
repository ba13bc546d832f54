package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as the experiments command: with
// EXPERIMENTS_RUN_MAIN=1 in the environment the process runs main on
// its arguments instead of the test suite (see runCommand).
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs experiments with args in a child process and returns
// its combined output and exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running experiments %v: %v", args, err)
	return "", 0
}

// TestFigFlagRejectsUnknownFigure: a -fig value that names no figure
// fails before any sweep runs, instead of printing only the harness
// time and exiting 0.
func TestFigFlagRejectsUnknownFigure(t *testing.T) {
	for _, fig := range []string{"baselines", "13", ""} {
		out, code := runCommand(t, "-fig", fig, "-scale", "0.01")
		if code == 0 {
			t.Errorf("-fig %q exited 0, want non-zero; output:\n%s", fig, out)
		}
		if !strings.Contains(out, "-fig") {
			t.Errorf("-fig %q: message does not name the flag:\n%s", fig, out)
		}
		if strings.Contains(out, "total harness time") {
			t.Errorf("-fig %q ran the harness:\n%s", fig, out)
		}
	}
	if out, code := runCommand(t, "-fig", "12", "-scale", "0.01"); code != 0 {
		t.Errorf("-fig 12 exited %d, want 0; output:\n%s", code, out)
	}
}
