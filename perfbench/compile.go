package main

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

const (
	// compileBlocksPerProfile is how many blocks (indices 0..n-1) of each
	// of the 14 paper profiles the compile set holds.
	compileBlocksPerProfile = 10
	// compileMaxInstrs caps block size. Above it single blocks grind for
	// seconds (mpeg2enc.sb0002, 117 instructions, takes 10-14 s) and one
	// block would set the whole pass time.
	compileMaxInstrs = 32
)

// compileItem is one block of the compile set on one machine, as the .sb
// bytes a compiler front end would hand the scheduler.
type compileItem struct {
	m    *machine.Config
	text string
}

// compileSet builds the compile set: every block of the first
// compileBlocksPerProfile of each profile within the size cap, on each
// of the three evaluation machines. The set is the same for every seed;
// the seed orders it. Per-block cost spans four orders of magnitude, so
// any seeded subset would change the work of a pass by tens of percent
// from seed to seed (README.md).
func compileSet(seed int64) ([]compileItem, error) {
	var items []compileItem
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < compileBlocksPerProfile; idx++ {
			sb := p.GenerateBlock(idx, 0)
			if sb.N() > compileMaxInstrs {
				continue
			}
			text := sb.String()
			for _, key := range machineKeys {
				m, err := machine.ByKey(key)
				if err != nil {
					return nil, err
				}
				items = append(items, compileItem{m: m, text: text})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, nil
}

// passCounts is the deterministic part of one pass: a function of the
// block set and the code alone, so it must repeat exactly from pass to
// pass and from run to run.
type passCounts struct {
	steps, awctTried, launched, succeeded int
	probes, refuted, hits                 int
	tiers                                 [resilient.TierNaive + 1]int
	digest                                uint64 // sum of FNV-64a over the encoded schedules
}

// pass is one pass over the compile set.
type pass struct {
	counts     passCounts
	elapsed    time.Duration
	search     time.Duration // core.Schedule time of the accepted SG runs
	retry      time.Duration // tier-2 attempt time
	carsBlocks time.Duration // whole-ladder time of blocks that fell to CARS
	allocBytes uint64
	gcCycles   uint32
}

// compiled is one block's output, kept from the first pass for checking.
type compiled struct {
	schedule string
	awct     float64
}

// runPass schedules the whole set once. keep receives every block's
// output when non-nil; tr records spans when non-nil.
func runPass(items []compileItem, o *outcome, tr *tracer, reqBase int64, keep []compiled) pass {
	var p pass
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, it := range items {
		t0 := time.Now()
		sb, err := ir.Parse(it.text)
		if err != nil {
			o.fail("parsing block %d: %v", i, err)
			continue
		}
		t1 := time.Now()
		opts := resilient.Options{Core: core.Options{
			MaxSteps: stepBudget,
			Pins:     workload.PinsFor(sb, it.m.Clusters, pinSeed),
		}}
		s, out, err := resilient.Schedule(sb, it.m, opts)
		t2 := time.Now()
		if err != nil {
			o.fail("%s on %s: %v", sb.Name, it.m.Key(), err)
			continue
		}
		var text strings.Builder
		if err := s.WriteText(&text); err != nil {
			o.fail("%s: encoding: %v", sb.Name, err)
			continue
		}
		t3 := time.Now()

		c := &p.counts
		c.tiers[out.Tier]++
		h := fnv.New64a()
		h.Write([]byte(text.String()))
		c.digest += h.Sum64()
		if st := out.SGStats; st != nil {
			c.steps += st.StepsSpent
			c.awctTried += st.AWCTTried
			c.launched += st.AttemptsLaunched
			c.succeeded++
			c.probes += st.Learn.Probes
			c.refuted += st.Learn.Refuted
			c.hits += st.Learn.Hits
			p.search += st.Elapsed
		}
		for _, a := range out.Attempts {
			if a.Tier == resilient.TierRetry {
				p.retry += a.Elapsed
			}
			if a.Err != "" && strings.Contains(a.Err, core.ErrTimeout.Error()) {
				o.fail("%s: timeout-shaped attempt: %s", sb.Name, a.Err)
			}
		}
		if out.Tier == resilient.TierCARS {
			p.carsBlocks += out.Elapsed
		}
		if keep != nil {
			keep[i] = compiled{schedule: text.String(), awct: out.AWCT}
		}
		if tr != nil {
			traceBlock(tr, reqBase+int64(i), sb.Name, out, t0, t1, t2, t3)
		}
	}
	p.elapsed = time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	return p
}

// traceBlock records one block's spans: the block, its parse, the ladder
// with one child per tier attempt (from Outcome.Attempts, which run back
// to back), and the encode.
func traceBlock(tr *tracer, req int64, name string, out *resilient.Outcome, t0, t1, t2, t3 time.Time) {
	root := tr.add(span{Req: req, Name: "compile.block", Block: name, Start: tr.at(t0), End: tr.at(t3)})
	tr.add(span{Parent: root, Req: req, Name: "ir.parse", Block: name, Start: tr.at(t0), End: tr.at(t1)})
	ladder := tr.add(span{Parent: root, Req: req, Name: "ladder", Block: name, Start: tr.at(t1), End: tr.at(t2)})
	at := tr.at(t1)
	for _, a := range out.Attempts {
		end := at + int64(a.Elapsed)
		tr.add(span{Parent: ladder, Req: req, Name: "ladder." + a.Tier.String(), Block: name, Start: at, End: end})
		at = end
	}
	tr.add(span{Parent: root, Req: req, Name: "sched.encode", Block: name, Start: tr.at(t2), End: tr.at(t3)})
}

// runPasses runs whole passes until the window closes, at least one.
// In a traced run passes alternate between untraced and traced (tr), at
// least one of each, so a drift in host speed cannot pose as tracing
// overhead. The first pass's outputs land in keep.
func runPasses(items []compileItem, cfg runConfig, o *outcome, tr *tracer, keep []compiled) (untraced, traced []pass) {
	start := time.Now()
	for n := 0; n == 0 || (cfg.trace && n == 1) || time.Since(start) < cfg.window; n++ {
		var k []compiled
		if n == 0 {
			k = keep
		}
		if cfg.trace && n%2 == 1 {
			traced = append(traced, runPass(items, o, tr, int64(n*len(items)), nil))
		} else {
			untraced = append(untraced, runPass(items, o, nil, 0, k))
		}
	}
	return untraced, traced
}

func runCompile(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var items []compileItem
	setup, err := timeSetup(func() error {
		var err error
		items, err = compileSet(cfg.seed)
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup)

	keep := make([]compiled, len(items))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	passes, traced := runPasses(items, cfg, o, tr, keep)
	all := append(append([]pass(nil), passes...), traced...)
	o.attempted = len(all) * len(items)
	for i, p := range all[1:] {
		if p.counts != all[0].counts {
			o.fail("pass %d did different work than pass 1: %+v vs %+v", i+2, p.counts, all[0].counts)
		}
	}

	// Output checks, outside the timed passes.
	var sp speedup
	var schedules []*sched.Schedule
	for i, it := range items {
		sb, err := ir.Parse(it.text)
		if err != nil {
			o.fail("re-parsing block %d: %v", i, err)
			continue
		}
		if keep[i].schedule == "" {
			continue // the pass already counted this block as failed
		}
		s, err := checkSchedule(keep[i].schedule, sb, it.m, keep[i].awct)
		if err != nil {
			o.fail("%v", err)
			continue
		}
		if err := sp.add(s); err != nil {
			o.fail("%v", err)
			continue
		}
		schedules = append(schedules, s)
	}
	o.set("speedup_vs_cars", sp.ratio())

	// A pass is one build: its latency is the time the caller waits for
	// the whole set. Per-block percentiles are not reported; see README.md.
	lats := make([]time.Duration, len(passes))
	for i, p := range passes {
		lats[i] = p.elapsed
	}
	rate := float64(len(passes)*len(items)) / sumElapsed(passes).Seconds()
	o.set("blocks_per_s", rate)
	latencyMetrics(o, lats)

	c := all[0].counts
	o.logf("compile: %d blocks per pass (%d profiles x blocks 0-%d up to %d instrs x %d machines), %d+%d passes",
		len(items), len(workload.Benchmarks()), compileBlocksPerProfile-1, compileMaxInstrs, len(machineKeys), len(passes), len(traced))
	o.logf("compile: exact counts per pass: steps=%d awct_tried=%d attempts=%d/%d probes=%d refuted=%d hits=%d tiers sg=%d retry=%d cars=%d naive=%d digest=%016x",
		c.steps, c.awctTried, c.succeeded, c.launched, c.probes, c.refuted, c.hits,
		c.tiers[resilient.TierSG], c.tiers[resilient.TierRetry], c.tiers[resilient.TierCARS], c.tiers[resilient.TierNaive], c.digest)
	o.logf("compile: speedup_vs_cars=%.6f pass times %v", sp.ratio(), lats)

	if cfg.trace {
		compileLayers(o, items, schedules, passes, c)
		tracedRate := float64(len(traced)*len(items)) / sumElapsed(traced).Seconds()
		o.set("trace.overhead_pct", 100*(1-tracedRate/rate))
		layers := tr.summary(o)
		o.set("ir.parse_us", layers["ir.parse"].meanUS())
		o.set("sched.encode_us", layers["sched.encode"].meanUS())
		if err := tr.finish(o, cfg); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func sumElapsed(ps []pass) time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.elapsed
	}
	return d
}

// compileLayers records the compile workload's per-layer metrics: the
// exact per-pass counts, the median per-pass layer times of the untraced
// passes, and standalone timings of sg.Build and sched.Validate.
func compileLayers(o *outcome, items []compileItem, schedules []*sched.Schedule, passes []pass, c passCounts) {
	medianMS := func(f func(p pass) time.Duration) float64 {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, float64(f(p))/1e6)
		}
		return median(xs)
	}
	n := len(items)
	o.set("core.steps", float64(c.steps))
	o.set("core.awct_tried", float64(c.awctTried))
	if c.launched > 0 {
		o.set("core.attempt_success_frac", float64(c.succeeded)/float64(c.launched))
	}
	o.set("core.search_ms", medianMS(func(p pass) time.Duration { return p.search }))
	o.set("nogood.probes", float64(c.probes))
	o.set("nogood.refuted", float64(c.refuted))
	o.set("nogood.hits", float64(c.hits))
	o.set("ladder.sg_frac", float64(c.tiers[resilient.TierSG])/float64(n))
	o.set("ladder.tier_retry", float64(c.tiers[resilient.TierRetry]))
	o.set("ladder.tier_cars", float64(c.tiers[resilient.TierCARS]))
	o.set("ladder.retry_ms", medianMS(func(p pass) time.Duration { return p.retry }))
	o.set("ladder.cars_ms", medianMS(func(p pass) time.Duration { return p.carsBlocks }))
	var alloc, gc []float64
	for _, p := range passes {
		alloc = append(alloc, float64(p.allocBytes)/(1<<20))
		gc = append(gc, float64(p.gcCycles))
	}
	o.set("go.alloc_mb", median(alloc))
	o.set("go.gc_cycles", median(gc))

	sbs := make([]*ir.Superblock, n)
	for i, it := range items {
		sbs[i], _ = ir.Parse(it.text) // parsed without error in every pass
	}
	layerSG(o, n, func(i int) (*ir.Superblock, *machine.Config) { return sbs[i], items[i].m })
	o.set("sched.validate_us", perCallUS(len(schedules), func(i int) { _ = schedules[i].Validate() }))
}

// layerSG times sg.Build standalone and records the mean SG size.
func layerSG(o *outcome, n int, block func(i int) (*ir.Superblock, *machine.Config)) {
	edges := 0
	for i := 0; i < n; i++ {
		edges += sg.Build(block(i)).NumEdges()
	}
	if n > 0 {
		o.set("sg.edges", float64(edges)/float64(n))
	}
	o.set("sg.build_us", perCallUS(n, func(i int) { sg.Build(block(i)) }))
}
