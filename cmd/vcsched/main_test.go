package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"vcsched/internal/core"
)

// TestMain lets a test run this binary as the vcsched command: with
// VCSCHED_RUN_MAIN=1 in the environment the process runs main on its
// arguments instead of the test suite (see runCommand).
func TestMain(m *testing.M) {
	if os.Getenv("VCSCHED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs vcsched with args in a child process and returns its
// combined output and exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VCSCHED_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running vcsched %v: %v", args, err)
	return "", 0
}

func TestAlgoFlagRejectsUnknownScheduler(t *testing.T) {
	for _, algo := range []string{"VC", "list", ""} {
		out, code := runCommand(t, "-example", "-print=false", "-algo", algo)
		if code == 0 {
			t.Errorf("-algo %q exited 0, want non-zero; output:\n%s", algo, out)
		}
		if !strings.Contains(out, "-algo") {
			t.Errorf("-algo %q: message does not name the flag:\n%s", algo, out)
		}
	}
	for _, algo := range []string{"vc", "cars", "both"} {
		if out, code := runCommand(t, "-example", "-print=false", "-algo", algo); code != 0 {
			t.Errorf("-algo %q exited %d, want 0; output:\n%s", algo, code, out)
		}
	}
}

func TestBatchVerdict(t *testing.T) {
	timeout := core.ErrTimeout
	exhausted := core.ErrExhausted

	cases := []struct {
		name     string
		outcomes [][]error
		allHard  bool
		taxonomy []string
	}{
		{
			name:     "all scheduled",
			outcomes: [][]error{{nil}, {nil, nil}},
		},
		{
			name:     "one scheduler survives the block",
			outcomes: [][]error{{timeout, nil}},
		},
		{
			name:     "some blocks survive",
			outcomes: [][]error{{timeout}, {nil}},
		},
		{
			name:     "every block hard-fails",
			outcomes: [][]error{{timeout}, {exhausted, timeout}},
			allHard:  true,
			taxonomy: []string{"exhausted", "timeout"},
		},
		{
			name:     "wrapped errors classify",
			outcomes: [][]error{{errors.Join(errors.New("tier sg"), timeout)}},
			allHard:  true,
			taxonomy: []string{"timeout"},
		},
		{
			name:     "no blocks is not a hard failure",
			outcomes: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b batch
			for _, o := range tc.outcomes {
				b.record(o)
			}
			allHard, taxonomy := b.verdict()
			if allHard != tc.allHard {
				t.Fatalf("allHard = %t, want %t", allHard, tc.allHard)
			}
			if !reflect.DeepEqual(taxonomy, tc.taxonomy) {
				t.Fatalf("taxonomy = %v, want %v", taxonomy, tc.taxonomy)
			}
		})
	}
}
