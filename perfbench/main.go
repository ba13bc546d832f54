// Command perfbench is the repository's benchmark. It drives the
// scheduler from outside, through the public functions of each layer, on
// one of three closed-loop workloads:
//
//	compile  the batch compiler in process: one caller schedules a fixed
//	         set of paper-profile blocks on the three evaluation machines,
//	         given as .sb bytes, through parse → degradation ladder → encode;
//	serve    one scheduling daemon on loopback with nproc callers sending
//	         distinct generated blocks, so every request is a cache miss;
//	fleet    a router over three in-process shards with nproc callers
//	         reading a warmed working set, so every request is a cache hit.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// measures half the window untraced and half traced, and reports the
// per-layer metrics, the span summary and the tracing overhead. Every
// output is checked outside the timed region; any failed check, timeout,
// shed, queue expiry, client retry or hedge fails the run. The last line
// of standard output is one JSON object with the verdict and the
// metrics. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"vcsched/internal/cars"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/sim"
	"vcsched/internal/stats"
)

const (
	// stepBudget is the production deduction step budget per attempt
	// (vcschedd's -steps default). It, never the wall clock, bounds the
	// work spent on a block.
	stepBudget = 20000
	// pinSeed is the production live-in/live-out pin seed.
	pinSeed = 1
	// deadline sits far above the slowest block any workload sends, so
	// the wall clock never shapes a ladder descent.
	deadline = 60 * time.Second
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps = 5
)

// machineKeys are the paper's three evaluation machines.
var machineKeys = []string{"2c1l", "4c1l", "4c2l"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the scheduler sees, printed by every
// run with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"blocks_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"speedup_vs_cars", "x"},
	{"rss_mb", "MB"},
}

// perLayer are the per-layer metrics, printed by every run with --trace
// 1. A layer that a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"ir.parse_us", "us"},
	{"sg.build_us", "us"},
	{"sg.edges", "count"},
	{"sched.encode_us", "us"},
	{"sched.validate_us", "us"},
	{"core.steps", "count"},
	{"core.search_ms", "ms"},
	{"core.awct_tried", "count"},
	{"core.attempt_success_frac", "frac"},
	{"nogood.probes", "count"},
	{"nogood.refuted", "count"},
	{"nogood.hits", "count"},
	{"ladder.sg_frac", "frac"},
	{"ladder.tier_retry", "count"},
	{"ladder.tier_cars", "count"},
	{"ladder.retry_ms", "ms"},
	{"ladder.cars_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"service.hit_frac", "frac"},
	{"service.fingerprint_us", "us"},
	{"service.shed", "count"},
	{"service.queue_timeouts", "count"},
	{"httpapi.build_us", "us"},
	{"httpapi.resp_kb", "KB"},
	{"shard.server_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.shard_skew", "ratio"},
	{"client.overhead_ms", "ms"},
	{"vcclient.tries_per_req", "ratio"},
	{"trace.overhead_pct", "%"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	callers  int
}

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	failed int
	notes  []string
}

func (f *failures) fail(format string, args ...any) { f.failN(1, format, args...) }

func (f *failures) failN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	f.failed += n
	if len(f.notes) < 10 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// outcome collects what one run measured and every check that failed.
type outcome struct {
	failures
	attempted int
	values    map[string]float64
	summary   []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) logf(format string, args ...any) {
	o.summary = append(o.summary, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "compile, serve or fleet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, span summary, tracing overhead")
	flag.Parse()

	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		callers:  runtime.NumCPU(),
	}
	var (
		o   *outcome
		err error
	)
	switch cfg.workload {
	case "compile":
		o, err = runCompile(cfg)
	case "serve":
		o, err = runServe(cfg)
	case "fleet":
		o, err = runFleet(cfg)
	default:
		err = fmt.Errorf("unknown --workload %q (want compile, serve or fleet)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	o.set("rss_mb", peakRSSMB())

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := reportJSON{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, line := range o.summary {
		fmt.Println(line)
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !cfg.trace {
			fatal(fmt.Errorf("%s did not measure %s", cfg.workload, d.name))
		}
		rep.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// timeSetup runs a set-up setupReps times and returns the median wall
// time; teardown is called between repetitions, so only the last set-up
// stays up.
func timeSetup(setup func() error, teardown func()) (float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			teardown()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyMetrics records lat_p50_ms and lat_p95_ms (ceil nearest rank).
// The tail is p95, not p99: over sub-millisecond fleet replies the p99
// moved 10-52% (IQR/median over six to ten runs) with the host's preemptions,
// where p50 and p95 moved about 4%.
func latencyMetrics(o *outcome, lats []time.Duration) {
	sorted := stats.Sort(lats)
	o.set("lat_p50_ms", stats.Millis(stats.Percentile(sorted, 0.50)))
	o.set("lat_p95_ms", stats.Millis(stats.Percentile(sorted, 0.95)))
}

// checkSchedule parses an encoded schedule back against its block and
// machine and checks it as a consumer would: it must pass sched.Validate,
// and the simulator's expected cycles must equal the AWCT its producer
// claimed. The simulator is the reference the speed-up is measured with.
func checkSchedule(text string, sb *ir.Superblock, m *machine.Config, awct float64) (*sched.Schedule, error) {
	s, err := sched.ReadSchedule(strings.NewReader(text), sb, m)
	if err != nil {
		return nil, fmt.Errorf("%s: parsing schedule: %w", sb.Name, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", sb.Name, err)
	}
	if got := s.AWCT(); !near(got, awct) {
		return nil, fmt.Errorf("%s: schedule AWCT %.6f, producer claimed %.6f", sb.Name, got, awct)
	}
	cycles, err := sim.ExpectedCycles(s)
	if err != nil {
		return nil, fmt.Errorf("%s: simulating: %w", sb.Name, err)
	}
	if !near(cycles, awct) {
		return nil, fmt.Errorf("%s: simulated %.6f cycles, AWCT %.6f", sb.Name, cycles, awct)
	}
	return s, nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// speedup accumulates total cycles (AWCT × execution count, the paper's
// metric) of the ladder's schedules and of CARS on the same blocks and
// pins.
type speedup struct{ cars, ladder float64 }

func (sp *speedup) add(s *sched.Schedule) error {
	cs, err := cars.Schedule(s.SB, s.Mach, s.Pins)
	if err != nil {
		return fmt.Errorf("%s: CARS: %w", s.SB.Name, err)
	}
	if err := cs.Validate(); err != nil {
		return fmt.Errorf("%s: CARS: %w", s.SB.Name, err)
	}
	w := float64(s.SB.ExecCount)
	sp.cars += cs.AWCT() * w
	sp.ladder += s.AWCT() * w
	return nil
}

func (sp *speedup) ratio() float64 {
	if sp.ladder == 0 {
		return 0
	}
	return sp.cars / sp.ladder
}

// perCallUS times f over n calls five times and returns the median mean
// per call in microseconds: the standalone timing of one layer function.
func perCallUS(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var means []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		means = append(means, float64(time.Since(start).Microseconds())/float64(n))
	}
	return median(means)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
