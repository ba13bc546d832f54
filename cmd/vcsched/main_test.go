package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"vcsched/internal/core"
	"vcsched/internal/workload"
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

// timing matches the wall-clock fields of a block report: "failed
// after 1.2ms:" and "3 comms, 850µs)".
var timing = regexp.MustCompile(`(after|comms,) [^:)]+`)

// -parallel 3 schedules several blocks at a time, yet saves the same
// bytes as -parallel 1 and prints the same report, block for block in
// input order, once the timing fields are masked. Under the race
// detector the child process is the race-built test binary, so the
// detector sees the pool.
func TestParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	var input bytes.Buffer
	var names []string
	for i, p := range workload.Benchmarks() {
		sb := p.GenerateBlock(i%3, 0)
		if sb.N() > 16 {
			continue
		}
		if err := sb.Write(&input); err != nil {
			t.Fatal(err)
		}
		names = append(names, sb.Name)
		if len(names) == 10 {
			break
		}
	}
	if len(names) < 8 {
		t.Fatalf("only %d small workload blocks", len(names))
	}
	blocks := filepath.Join(dir, "blocks.sb")
	if err := os.WriteFile(blocks, input.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(parallel string) (report string, saved []byte) {
		save := filepath.Join(dir, "parallel"+parallel+".sched")
		out, code := runCommand(t, "-machine", "4c2l", "-algo", "both", "-timeout", "0",
			"-parallel", parallel, "-save", save, blocks)
		if code != 0 {
			t.Fatalf("-parallel %s exited %d; output:\n%s", parallel, code, out)
		}
		saved, err := os.ReadFile(save)
		if err != nil {
			t.Fatal(err)
		}
		return timing.ReplaceAllString(out, "$1 T"), saved
	}
	serialOut, serialSaved := run("1")
	parallelOut, parallelSaved := run("3")
	if !bytes.Equal(serialSaved, parallelSaved) {
		t.Errorf("saved schedules differ:\n-parallel 1:\n%s\n-parallel 3:\n%s", serialSaved, parallelSaved)
	}
	if serialOut != parallelOut {
		t.Errorf("reports differ:\n-parallel 1:\n%s\n-parallel 3:\n%s", serialOut, parallelOut)
	}
	var order []string
	for _, line := range strings.Split(serialOut, "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			order = append(order, strings.Fields(name)[0])
		}
	}
	if !reflect.DeepEqual(order, names) {
		t.Errorf("blocks reported in order %v, want the input order %v", order, names)
	}
	if n := bytes.Count(serialSaved, []byte("schedule ")); n != len(names) {
		t.Errorf("%d schedules saved, want %d", n, len(names))
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
