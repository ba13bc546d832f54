package difftest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// Repro is a self-contained reproducer for a fuzzing violation: the
// minimized superblock plus everything needed to re-run the exact
// differential check that failed. The on-disk form is a plain .sb file
// with a comment header — the .sb parser ignores comment lines, so every
// repro file also loads in any tool that reads superblocks (cmd/vcsched,
// the test corpus loader), while ReadRepro recovers the full context.
//
//	# vcfuzz-repro v1
//	# machine 2c1l
//	# pinseed 0
//	# maxsteps 20000
//	# oraclelimit 8
//	# violation validate: instruction 3 issued before its operand
//	superblock tiny0000beef 17
//	...
type Repro struct {
	SB          *ir.Superblock
	MachineKey  string // machine.ByKey key
	PinSeed     int64
	MaxSteps    int
	OracleLimit int
	// Violations records what the harness saw when writing the file
	// (first line of each violation). Informational: Replay re-derives
	// the ground truth.
	Violations []string
}

// ReproOf captures a violating report as a reproducer. The machine must
// be one of the keyed configurations (machine.ByKey) so the file can
// name it.
func ReproOf(rep *Report) (*Repro, error) {
	key := rep.Opts.Machine.Key()
	if key == "" {
		return nil, fmt.Errorf("difftest: machine %q has no ByKey key; repro files cannot reference it", rep.Opts.Machine.Name)
	}
	r := &Repro{
		SB:          rep.SB,
		MachineKey:  key,
		PinSeed:     rep.Opts.PinSeed,
		MaxSteps:    rep.Opts.MaxSteps,
		OracleLimit: rep.Opts.OracleLimit,
	}
	for _, v := range rep.Violations {
		r.Violations = append(r.Violations, firstLine(v.String()))
	}
	return r, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Options reconstructs the check options the repro records.
func (r *Repro) Options() (Options, error) {
	m, err := machine.ByKey(r.MachineKey)
	if err != nil {
		return Options{}, err
	}
	return Options{
		Machine:     m,
		PinSeed:     r.PinSeed,
		MaxSteps:    r.MaxSteps,
		OracleLimit: r.OracleLimit,
	}, nil
}

// Replay re-runs the recorded differential check. A fixed bug replays
// with an empty Violations list; a live one reproduces it.
func (r *Repro) Replay() (*Report, error) {
	opts, err := r.Options()
	if err != nil {
		return nil, err
	}
	return Check(r.SB, opts), nil
}

// Write emits the repro in its on-disk form.
func (r *Repro) Write(w io.Writer) error {
	fmt.Fprintln(w, "# vcfuzz-repro v1")
	fmt.Fprintf(w, "# machine %s\n", r.MachineKey)
	fmt.Fprintf(w, "# pinseed %d\n", r.PinSeed)
	fmt.Fprintf(w, "# maxsteps %d\n", r.MaxSteps)
	fmt.Fprintf(w, "# oraclelimit %d\n", r.OracleLimit)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "# violation %s\n", firstLine(v))
	}
	return r.SB.Write(w)
}

// WriteFile writes the repro to path, creating directories as needed.
func (r *Repro) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRepro parses the on-disk form. Unknown header keys are ignored
// (newer writers stay readable); missing keys keep their zero value and
// resolve to the Check defaults.
func ReadRepro(rd io.Reader) (*Repro, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	r := &Repro{}
	lines := strings.Split(string(data), "\n")
	body := 0
	saw := false
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			body = i
			break
		}
		fields := strings.Fields(strings.TrimPrefix(line, "#"))
		if len(fields) < 2 {
			continue
		}
		var perr error
		switch fields[0] {
		case "vcfuzz-repro":
			if fields[1] != "v1" {
				return nil, fmt.Errorf("difftest: unsupported repro version %q", fields[1])
			}
			saw = true
		case "machine":
			r.MachineKey = fields[1]
		case "pinseed":
			r.PinSeed, perr = strconv.ParseInt(fields[1], 10, 64)
		case "maxsteps":
			r.MaxSteps, perr = strconv.Atoi(fields[1])
		case "oraclelimit":
			r.OracleLimit, perr = strconv.Atoi(fields[1])
		case "violation":
			r.Violations = append(r.Violations, strings.Join(fields[1:], " "))
		}
		if perr != nil {
			return nil, fmt.Errorf("difftest: repro header %q: %w", line, perr)
		}
	}
	if !saw {
		return nil, fmt.Errorf("difftest: missing '# vcfuzz-repro v1' header")
	}
	sb, err := ir.Parse(strings.Join(lines[body:], "\n"))
	if err != nil {
		return nil, err
	}
	r.SB = sb
	return r, nil
}

// ReadReproFile reads one repro file from disk.
func ReadReproFile(path string) (*Repro, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadRepro(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
