// Command vcsched schedules superblocks from .sb files on a clustered
// VLIW machine with the virtual-cluster scheduler, the CARS baseline, or
// both:
//
//	go run ./cmd/vcsched -machine 4c1l -algo both block.sb
//
// With no file arguments it reads one .sb stream from stdin. The paper's
// Figure 1 example is built in: pass -example instead of files.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
	"vcsched/internal/version"
	"vcsched/internal/workload"
)

func main() {
	machName := flag.String("machine", "2c1l", "target: 2c1l, 4c1l, 4c2l, sec5 (paper §5 example)")
	algo := flag.String("algo", "both", "scheduler: vc, cars or both")
	timeout := flag.Duration("timeout", 5*time.Second, "VC scheduling timeout per block")
	parallel := flag.Int("parallel", 1, "portfolio search workers per block (1 = serial driver; results are identical, only wall-clock changes)")
	example := flag.Bool("example", false, "schedule the paper's Figure 1 superblock")
	showSched := flag.Bool("print", true, "print the schedules, not just the metrics")
	dot := flag.Bool("dot", false, "emit Graphviz DOT for each block's dependence and scheduling graphs instead of scheduling")
	save := flag.String("save", "", "append the VC schedules in .sched form to this file")
	seed := flag.Int64("seed", 1, "live-in/live-out pin seed")
	resil := flag.Bool("resilient", false, "run the VC side through the degradation ladder (SG → CARS → naive); every block ends with a valid schedule")
	report := flag.Bool("report", false, "with -resilient, print the per-block outcome record (tier, error chain per attempt)")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vcsched", version.String())
		return
	}
	switch *algo {
	case "vc", "cars", "both":
	default:
		fatal(fmt.Errorf("unknown -algo %q (want vc, cars or both)", *algo))
	}

	m, err := pickMachine(*machName)
	if err != nil {
		fatal(err)
	}

	var blocks []*ir.Superblock
	switch {
	case *example:
		blocks = []*ir.Superblock{ir.PaperFigure1()}
	case flag.NArg() == 0:
		blocks, err = ir.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
	default:
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			bs, err := ir.ReadAll(f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			blocks = append(blocks, bs...)
		}
	}
	if len(blocks) == 0 {
		fatal(fmt.Errorf("no superblocks to schedule"))
	}

	if *dot {
		for _, sb := range blocks {
			fmt.Print(sb.Dot())
			fmt.Print(sg.Build(sb, m).Dot())
		}
		return
	}

	var saveTo io.Writer
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		saveTo = f
	}

	var b batch
	for _, sb := range blocks {
		pins := workload.PinsFor(sb, m.Clusters, *seed)
		fmt.Printf("== %s (%d instructions) on %s\n", sb.Name, sb.N(), m)
		var outcomes []error
		if *algo == "vc" || *algo == "both" {
			var err error
			if *resil {
				err = runResilient(sb, m, pins, *timeout, *parallel, *showSched, *report, saveTo)
			} else {
				err = runVC(sb, m, pins, *timeout, *parallel, *showSched, saveTo)
			}
			outcomes = append(outcomes, err)
		}
		if *algo == "cars" || *algo == "both" {
			outcomes = append(outcomes, runCARS(sb, m, pins, *showSched))
		}
		b.record(outcomes)
	}
	if allHard, taxonomies := b.verdict(); allHard {
		fmt.Fprintf(os.Stderr, "vcsched: every block hard-failed (%d of %d; taxonomy: %s)\n",
			b.hard, b.blocks, strings.Join(taxonomies, ", "))
		os.Exit(1)
	}
}

// batch tracks per-block outcomes across the run so the process can
// report a batch verdict: a block hard-fails when no selected scheduler
// produced a schedule for it, and when every block hard-fails the
// process exits non-zero naming the error-taxonomy classes seen (the
// CLI analogue of vcschedd answering 422).
type batch struct {
	blocks   int
	hard     int
	failures int
	taxonomy map[string]bool
}

// record notes one block's per-scheduler outcomes, one entry per
// scheduler run (nil = it produced a schedule). The block hard-fails
// only when at least one scheduler ran and every one errored.
func (b *batch) record(outcomes []error) {
	b.blocks++
	failed := 0
	for _, err := range outcomes {
		if err != nil {
			failed++
		}
	}
	b.failures += failed
	if len(outcomes) == 0 || failed < len(outcomes) {
		return
	}
	b.hard++
	if b.taxonomy == nil {
		b.taxonomy = map[string]bool{}
	}
	for _, err := range outcomes {
		b.taxonomy[resilient.Taxonomy(err)] = true
	}
}

// verdict reports whether every block in the batch hard-failed, with
// the sorted distinct taxonomy classes of the failures.
func (b *batch) verdict() (allHard bool, taxonomies []string) {
	if b.blocks == 0 || b.hard < b.blocks {
		return false, nil
	}
	for name := range b.taxonomy {
		taxonomies = append(taxonomies, name)
	}
	sort.Strings(taxonomies)
	return true, taxonomies
}

func runVC(sb *ir.Superblock, m *machine.Config, pins sched.Pins, timeout time.Duration, parallel int, show bool, saveTo io.Writer) error {
	start := time.Now()
	s, stats, err := core.Schedule(sb, m, core.Options{Pins: pins, Timeout: timeout, Parallelism: parallel})
	el := time.Since(start).Round(time.Microsecond)
	if err != nil {
		fmt.Printf("  VC:   failed after %v: %v (%d attempts, %d cancelled)\n",
			el, err, stats.AttemptsLaunched, stats.AttemptsCancelled)
		return err
	}
	fmt.Printf("  VC:   AWCT %.3f (lower bound %.3f, %d AWCT values tried, %d comms, %v)\n",
		s.AWCT(), stats.MinAWCT, stats.AWCTTried, s.NumComms(), el)
	if parallel > 1 {
		fmt.Printf("        portfolio: %d attempts launched, %d cancelled, %d deduction steps\n",
			stats.AttemptsLaunched, stats.AttemptsCancelled, stats.StepsSpent)
	}
	fmt.Printf("        exits %s\n", sched.FormatExitCycles(s.ExitCycles()))
	if show {
		indent(os.Stdout, s.Format())
	}
	if saveTo != nil {
		if err := s.WriteText(saveTo); err != nil {
			fatal(err)
		}
	}
	return nil
}

func runResilient(sb *ir.Superblock, m *machine.Config, pins sched.Pins, timeout time.Duration, parallel int, show, report bool, saveTo io.Writer) error {
	s, out, err := resilient.Schedule(sb, m, resilient.Options{
		Core: core.Options{Pins: pins, Timeout: timeout, Parallelism: parallel},
	})
	if err != nil {
		fmt.Printf("  VC:   every tier failed after %v: %v\n", out.Elapsed.Round(time.Microsecond), err)
		return err
	}
	fmt.Printf("  VC:   AWCT %.3f via tier %s (%d comms, %v)\n",
		out.AWCT, out.Tier, s.NumComms(), out.Elapsed.Round(time.Microsecond))
	if report {
		indent(os.Stdout, out.String()+"\n")
	}
	if show {
		indent(os.Stdout, s.Format())
	}
	if saveTo != nil {
		if err := s.WriteText(saveTo); err != nil {
			fatal(err)
		}
	}
	return nil
}

func runCARS(sb *ir.Superblock, m *machine.Config, pins sched.Pins, show bool) error {
	start := time.Now()
	s, err := cars.Schedule(sb, m, pins)
	el := time.Since(start).Round(time.Microsecond)
	if err != nil {
		fmt.Printf("  CARS: failed: %v\n", err)
		return err
	}
	fmt.Printf("  CARS: AWCT %.3f (%d comms, %v)\n", s.AWCT(), s.NumComms(), el)
	if show {
		indent(os.Stdout, s.Format())
	}
	return nil
}

func pickMachine(name string) (*machine.Config, error) {
	return machine.ByKey(name)
}

func indent(w io.Writer, s string) {
	for _, line := range splitLines(s) {
		fmt.Fprintf(w, "    %s\n", line)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcsched:", err)
	os.Exit(1)
}
