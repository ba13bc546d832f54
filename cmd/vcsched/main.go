// Command vcsched schedules superblocks from .sb files on a clustered
// VLIW machine with the virtual-cluster scheduler, the CARS baseline, or
// both:
//
//	go run ./cmd/vcsched -machine 4c1l -algo both block.sb
//
// With no file arguments it reads one .sb stream from stdin. The paper's
// Figure 1 example is built in: pass -example instead of files.
//
// -parallel N schedules up to N blocks at a time. Each block's report
// and -save record are printed in input order, as soon as that block
// and every earlier one are done. Unless a block hits -timeout, the
// -save file is the -parallel 1 file byte for byte, and the report
// differs from it only in timing fields.
package main

import (
	"bytes"
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
	parallel := flag.Int("parallel", 1, "blocks scheduled at a time (values below 1 mean 1); output stays in input order")
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

	saveTo := io.Discard
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		saveTo = f
	}

	// scheduleBlock writes one block's report to out and its VC
	// schedule in .sched form to rec, and returns one outcome per
	// scheduler run.
	scheduleBlock := func(sb *ir.Superblock, out, rec io.Writer) []error {
		pins := workload.PinsFor(sb, m.Clusters, *seed)
		fmt.Fprintf(out, "== %s (%d instructions) on %s\n", sb.Name, sb.N(), m)
		var outcomes []error
		if *algo == "vc" || *algo == "both" {
			if *resil {
				outcomes = append(outcomes, runResilient(out, rec, sb, m, pins, *timeout, *showSched, *report))
			} else {
				outcomes = append(outcomes, runVC(out, rec, sb, m, pins, *timeout, *showSched))
			}
		}
		if *algo == "cars" || *algo == "both" {
			outcomes = append(outcomes, runCARS(out, sb, m, pins, *showSched))
		}
		return outcomes
	}

	// Up to -parallel blocks run at a time (the semaphore idiom of
	// bench.RunApp). Block i delivers its buffered output on done[i],
	// and the loop below prints the blocks in input order.
	type blockOutput struct {
		out, rec bytes.Buffer
		outcomes []error
	}
	done := make([]chan *blockOutput, len(blocks))
	for i := range done {
		done[i] = make(chan *blockOutput, 1)
	}
	go func() {
		sem := make(chan struct{}, max(*parallel, 1))
		for i, sb := range blocks {
			sem <- struct{}{}
			go func() {
				defer func() { <-sem }()
				o := &blockOutput{}
				o.outcomes = scheduleBlock(sb, &o.out, &o.rec)
				done[i] <- o
			}()
		}
	}()
	var b batch
	for _, ch := range done {
		o := <-ch
		os.Stdout.Write(o.out.Bytes())
		if _, err := saveTo.Write(o.rec.Bytes()); err != nil {
			fatal(err)
		}
		b.record(o.outcomes)
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

func runVC(w, rec io.Writer, sb *ir.Superblock, m *machine.Config, pins sched.Pins, timeout time.Duration, show bool) error {
	start := time.Now()
	s, stats, err := core.Schedule(sb, m, core.Options{Pins: pins, Timeout: timeout})
	el := time.Since(start).Round(time.Microsecond)
	if err != nil {
		fmt.Fprintf(w, "  VC:   failed after %v: %v (%d attempts)\n", el, err, stats.AttemptsLaunched)
		return err
	}
	fmt.Fprintf(w, "  VC:   AWCT %.3f (lower bound %.3f, %d AWCT values tried, %d comms, %v)\n",
		s.AWCT(), stats.MinAWCT, stats.AWCTTried, s.NumComms(), el)
	fmt.Fprintf(w, "        exits %s\n", sched.FormatExitCycles(s.ExitCycles()))
	if show {
		indent(w, s.Format())
	}
	return s.WriteText(rec)
}

func runResilient(w, rec io.Writer, sb *ir.Superblock, m *machine.Config, pins sched.Pins, timeout time.Duration, show, report bool) error {
	s, out, err := resilient.Schedule(sb, m, resilient.Options{
		Core: core.Options{Pins: pins, Timeout: timeout},
	})
	if err != nil {
		fmt.Fprintf(w, "  VC:   every tier failed after %v: %v\n", out.Elapsed.Round(time.Microsecond), err)
		return err
	}
	fmt.Fprintf(w, "  VC:   AWCT %.3f via tier %s (%d comms, %v)\n",
		out.AWCT, out.Tier, s.NumComms(), out.Elapsed.Round(time.Microsecond))
	if report {
		indent(w, out.String()+"\n")
	}
	if show {
		indent(w, s.Format())
	}
	return s.WriteText(rec)
}

func runCARS(w io.Writer, sb *ir.Superblock, m *machine.Config, pins sched.Pins, show bool) error {
	start := time.Now()
	s, err := cars.Schedule(sb, m, pins)
	el := time.Since(start).Round(time.Microsecond)
	if err != nil {
		fmt.Fprintf(w, "  CARS: failed: %v\n", err)
		return err
	}
	fmt.Fprintf(w, "  CARS: AWCT %.3f (%d comms, %v)\n", s.AWCT(), s.NumComms(), el)
	if show {
		indent(w, s.Format())
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
