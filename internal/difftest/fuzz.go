package difftest

import (
	"fmt"
	"path/filepath"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
)

// Config drives a fuzzing campaign: Budget random blocks are generated,
// each is differentially checked (cycling through Machines), and every
// violation is shrunk to a minimal reproducer.
type Config struct {
	Seed   int64
	Budget int // blocks to check (default 100)
	// Machines to cycle through; default is the paper's three evaluation
	// configurations. Repro files require keyed machines (machine.ByKey).
	Machines []*machine.Config
	// MaxInstrs caps generated block size (default 40).
	MaxInstrs int
	// Per-check options, zero values meaning the Check defaults.
	PinSeed     int64
	MaxSteps    int
	OracleLimit int
	// ReproDir, when set, receives one .sb repro file per violating
	// block.
	ReproDir string
	// MaxViolations stops the campaign early after that many violating
	// blocks (0 = run the full budget).
	MaxViolations int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
	// CorruptVC is the fault-injection hook, passed through to every
	// Check (including during shrinking). Tests use it to prove the
	// harness catches and minimizes an artificial scheduler bug.
	CorruptVC func(*sched.Schedule)
}

// Outcome summarizes a campaign.
type Outcome struct {
	Checked    int
	Scheduled  int       // blocks where the VC scheduler produced a schedule
	Exhausted  int       // blocks where it gave up under the step budget
	Violating  []*Report // one post-shrink report per violating block
	ReproFiles []string
}

// Fuzz runs the campaign. The error return covers only harness-level
// failures (unkeyed machine, unwritable repro file); violations are
// reported in the Outcome.
func Fuzz(cfg Config) (*Outcome, error) {
	if cfg.Budget <= 0 {
		cfg.Budget = 100
	}
	machines := cfg.Machines
	if len(machines) == 0 {
		machines = machine.EvaluationConfigs()
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	g := NewGen(cfg.Seed, cfg.MaxInstrs)
	out := &Outcome{}
	for i := 0; i < cfg.Budget; i++ {
		sb := g.Next()
		opts := Options{
			Machine:     machines[i%len(machines)],
			PinSeed:     cfg.PinSeed,
			MaxSteps:    cfg.MaxSteps,
			OracleLimit: cfg.OracleLimit,
			CorruptVC:   cfg.CorruptVC,
		}
		rep := Check(sb, opts)
		out.Checked++
		if rep.VCErr == nil {
			out.Scheduled++
		} else {
			out.Exhausted++
		}
		if (i+1)%200 == 0 {
			logf("checked %d/%d blocks (%d violations)", i+1, cfg.Budget, len(out.Violating))
		}
		if len(rep.Violations) == 0 {
			continue
		}
		kind := rep.Violations[0].Kind
		logf("%s on %s: %s", sb.Name, opts.Machine.Name, firstLine(rep.Violations[0].String()))
		min := Shrink(sb, func(cand *ir.Superblock) bool {
			return Check(cand, opts).Has(kind)
		})
		logf("shrunk %s: %d -> %d instructions", sb.Name, sb.N(), min.N())
		minRep := Check(min, opts)
		out.Violating = append(out.Violating, minRep)
		if cfg.ReproDir != "" {
			r, err := ReproOf(minRep)
			if err != nil {
				return out, err
			}
			path := filepath.Join(cfg.ReproDir, fmt.Sprintf("repro_%04d_%s.sb", i, kind))
			if err := r.WriteFile(path); err != nil {
				return out, err
			}
			out.ReproFiles = append(out.ReproFiles, path)
			logf("wrote %s", path)
		}
		if cfg.MaxViolations > 0 && len(out.Violating) >= cfg.MaxViolations {
			break
		}
	}
	return out, nil
}
