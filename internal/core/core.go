// Package core implements the paper's scheduling algorithm: instruction
// scheduling and cluster assignment for superblocks on clustered VLIW
// machines, driven by the scheduling graph, virtual clusters and the
// deduction process (Section 4).
//
// The driver enumerates target AWCT values. For each value the exit
// branches are pinned to a cycle vector and a schedule is sought in six
// stages:
//
//  1. decide (choose or discard) every combination between original
//     instructions — most-constraining pair first, every alternative
//     studied through the DP, the best surviving alternative applied;
//  2. fix the remaining slack of original instructions to cycles;
//  3. eliminate outedges: fuse or split virtual cluster pairs selected
//     by a maximum-weight matching over the matching graph;
//  4. map the remaining virtual clusters onto physical clusters in
//     decreasing-degree (coloring) order, via the anchor VCs;
//  5. + 6. decide the remaining freedom of communications (in this
//     implementation the two stages collapse into per-copy cycle
//     fixing; pairwise copy interaction is already captured by the bus
//     occupancy rules of the DP).
//
// If any stage runs out of alternatives the AWCT value is infeasible:
// the enumeration moves on to the next exit vector in AWCT order (a
// failed vector enqueues every one-cycle move of an exit that pushes no
// other exit, Section 4.2) and retries. A deterministic step budget
// and a wall-clock timeout bound compilation time; on exhaustion the
// caller is expected to fall back to a list scheduler (the paper uses
// CARS beyond its thresholds). A caller that already holds a schedule
// passes its AWCT as Options.Ceiling, and the enumeration then stops
// at the first exit vector that cannot beat it.
package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"vcsched/internal/deduce"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
)

// ErrTimeout is returned when the wall-clock timeout expires before a
// schedule is found.
var ErrTimeout = errors.New("core: timeout")

// ErrExhausted is returned when the AWCT enumeration or the step budget
// gives out.
var ErrExhausted = errors.New("core: search exhausted")

// ErrNoBetter is returned when the search proves, or reaches, an AWCT
// at or above Options.Ceiling: no schedule it could still return
// would beat the caller's.
var ErrNoBetter = errors.New("core: no schedule below the ceiling")

// Options tunes the scheduler. The zero value selects sensible defaults.
type Options struct {
	// Pins assigns live-in/live-out values to clusters (shared with the
	// baseline for fair comparisons).
	Pins sched.Pins
	// Timeout bounds wall-clock scheduling time (<= 0 = none).
	Timeout time.Duration
	// MaxSteps bounds deduction passes (0 = DefaultMaxSteps; < 0 =
	// unlimited). One budget is shared by the bound probes and every
	// attempt of the search.
	MaxSteps int
	// Parallelism is not read here: a search is one serial walk, and
	// parallelism lives across blocks (vcsched -parallel, the service's
	// worker pool, the experiments harness's workers). The field stays
	// only because service.Config sizes its worker pool from
	// Ladder.Core.Parallelism when Workers is 0, which is how perfbench
	// sizes its shards. ROADMAP's benchmark item deletes it together
	// with service.Config.Ladder.
	Parallelism int
	// Ceiling is the AWCT of a schedule the caller already holds (0 =
	// none). The search then returns a schedule only if it is strictly
	// below the ceiling, and ErrNoBetter otherwise: before it builds
	// anything when the dependence bound reaches the ceiling, during the
	// bound probes as soon as the bound they have proven so far does,
	// and else at the first exit vector whose AWCT reaches it. Below the
	// ceiling the search is unchanged, so a schedule it returns is the
	// one the search without a ceiling returns.
	Ceiling float64
	// Trace, when non-nil, receives search progress lines (AWCT
	// attempts, stage failures) for debugging.
	Trace func(format string, args ...any)
}

// DefaultMaxSteps is the deduction step budget of a search whose
// Options.MaxSteps is 0.
const DefaultMaxSteps = 400000

// The search's fixed configuration: the one the paper evaluates.
const (
	// shaveRounds is the bound-probing depth of deduce.State.Shave.
	shaveRounds = 2
	// candidateLimit is the number of most-constraining candidates
	// studied per stage iteration.
	candidateLimit = 3
	// cycleCandLimit caps the cycles studied per stage-2/6 candidate
	// (both window boundaries among them).
	cycleCandLimit = 6
	// maxAWCTIters caps the AWCT enumeration.
	maxAWCTIters = 64
	// retries is the number of perturbed decision orders tried per AWCT
	// value before bumping it: heuristic dead-ends are order-sensitive,
	// so rotating the candidate order recovers many feasible AWCTs.
	retries = 3
	// awctEps absorbs float rounding when an AWCT is compared with the
	// ceiling: equal weighted sums over different exit vectors may
	// differ in their last bits.
	awctEps = 1e-9
)

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = DefaultMaxSteps // < 0 stays: unlimited
	}
	if o.Timeout < 0 {
		o.Timeout = 0
	}
	return o
}

// AttemptOutcome classifies how one (exit vector, variant) attempt
// ended.
type AttemptOutcome uint8

const (
	// AttemptContradicted: the DP refuted the attempt; the search moved
	// on to the next variant or exit vector.
	AttemptContradicted AttemptOutcome = iota
	// AttemptSucceeded: the attempt produced a valid schedule.
	AttemptSucceeded
	// AttemptErrored: the attempt aborted on a terminal error (budget
	// exhaustion or timeout).
	AttemptErrored
)

// String returns a short outcome label for traces and stats dumps.
func (o AttemptOutcome) String() string {
	switch o {
	case AttemptContradicted:
		return "contradicted"
	case AttemptSucceeded:
		return "succeeded"
	case AttemptErrored:
		return "errored"
	}
	return "unknown"
}

// Attempt records one (exit vector, variant) scheduling attempt for the
// per-attempt accounting in Stats.
type Attempt struct {
	AWCTIndex int // position of the exit vector in enumeration order
	Variant   int // perturbed decision order index within the vector
	Steps     int // deduction passes this attempt consumed
	Outcome   AttemptOutcome
}

// Stats reports how the search went.
type Stats struct {
	// MinAWCT is the enhanced lower bound the enumeration started from;
	// when the bound probes stopped at the ceiling, the part of it they
	// had proven by then.
	MinAWCT    float64
	FinalAWCT  float64       // AWCT of the returned schedule
	AWCTTried  int           // number of exit vectors attempted
	Elapsed    time.Duration // wall-clock scheduling time
	Comms      int           // communications in the final schedule
	StepsSpent int           // deduction passes consumed (all attempts + bound probes)

	// Per-attempt accounting, in visit order: (AWCTIndex, Variant)
	// ascending. AttemptsLaunched is len(Attempts).
	AttemptsLaunched int
	Attempts         []Attempt

	// Learn is always zero. It held the counters of a conflict-learning
	// layer that has been removed (DESIGN.md §15) and stays only so
	// readers of those counters, such as perfbench's nogood.* rows,
	// keep compiling and report the layer as unused.
	Learn struct{ Probes, Refuted, Hits int }
}

type scheduler struct {
	sb       *ir.Superblock
	m        *machine.Config
	g        *sg.Graph
	opts     Options
	budget   *deduce.Budget
	deadline time.Time
	dist     [][]int
	tail     []int  // longest completion tail from each node (see bumpCandidates)
	variant  int    // perturbs candidate order across retries of one AWCT
	curStage string // pipeline stage currently running (panic context)

	// base is the current exit vector's state after its setup, saved on
	// the arena for the variants after the first (attempt).
	base *deduce.State

	// arena backs every state this scheduler builds. States are built
	// strictly sequentially (probe, then attempt after attempt), so one
	// arena amortizes all their allocations.
	arena *deduce.Arena
}

// Schedule runs the full algorithm on one superblock. On ErrTimeout or
// ErrExhausted no schedule is returned and the caller should fall back
// to a baseline scheduler. Schedule never panics: panics anywhere in
// the pipeline are recovered into a *PanicError (wrapping ErrInternal)
// with the stage, exit vector and stack attached.
func Schedule(sb *ir.Superblock, m *machine.Config, opts Options) (schedule *sched.Schedule, stats Stats, err error) {
	defer recoverToError("schedule", nil, &err)
	opts = opts.withDefaults()
	if n, ok := starveSteps(); ok && (opts.MaxSteps <= 0 || n < opts.MaxSteps) {
		opts.MaxSteps = n
	}
	start := time.Now()
	if err := m.CheckUnits(sb); err != nil {
		// A class with no unit anywhere: no exit vector can be met.
		stats.Elapsed = time.Since(start)
		return nil, stats, fmt.Errorf("core: %w", err)
	}
	if opts.Ceiling > 0 && opts.Ceiling <= sb.CriticalAWCT()+awctEps {
		// Not even the dependence bound beats the ceiling: build no SG.
		stats.Elapsed = time.Since(start)
		return nil, stats, ErrNoBetter
	}
	s := newScheduler(sb, m, opts)
	if opts.Timeout > 0 {
		s.deadline = start.Add(opts.Timeout)
		// The deadline must also interrupt long propagation runs deep
		// inside the DP, not just stage boundaries.
		if s.budget == nil {
			s.budget = deduce.NewBudget(0)
		}
		s.budget.SetDeadline(s.deadline)
	}

	ests, err := s.safeExitEsts()
	if err != nil {
		stats.Elapsed = time.Since(start)
		stats.StepsSpent = s.stepsSpent()
		return nil, stats, s.mapErr(err)
	}
	stats.MinAWCT = s.awctOf(ests)
	if s.reached(stats.MinAWCT) {
		// The enhanced bound, or the part of it the probes proved before
		// they stopped, reaches the ceiling: try no vector.
		stats.Elapsed = time.Since(start)
		stats.StepsSpent = s.stepsSpent()
		return nil, stats, s.stopErr(true)
	}

	// Best-first enumeration over exit-cycle vectors: vectors are tried
	// in increasing AWCT order; a failed vector enqueues every
	// single-exit bump the Section 4.2 rule allows. (A strict
	// lowest-probability-only path can skip feasible vectors whose bump
	// coordinate differs from the rule's pick.) The first vector that
	// reaches the ceiling ends the search: every later one is no lower.
	queue := newVectorQueue(s)
	queue.push(append([]int(nil), ests...))
	for iter := 0; iter < maxAWCTIters; iter++ {
		vector, awct, ok := queue.pop()
		if !ok {
			break
		}
		if s.reached(awct) {
			stats.Elapsed = time.Since(start)
			stats.StepsSpent = s.stepsSpent()
			return nil, stats, s.stopErr(true)
		}
		stats.AWCTTried++
		for v := 0; v < retries; v++ {
			if err := s.checkTime(); err != nil {
				stats.Elapsed = time.Since(start)
				stats.StepsSpent = s.stepsSpent()
				return nil, stats, err
			}
			s.variant = v
			before := s.stepsSpent()
			schedule, err := s.safeAttempt(vector)
			stats.AttemptsLaunched++
			rec := Attempt{AWCTIndex: stats.AWCTTried - 1, Variant: v, Steps: s.stepsSpent() - before}
			if s.opts.Trace != nil {
				s.opts.Trace("attempt vector=%v awct=%.3f variant=%d err=%v", vector, awct, v, err)
			}
			if err == nil {
				rec.Outcome = AttemptSucceeded
				stats.Attempts = append(stats.Attempts, rec)
				stats.FinalAWCT = schedule.AWCT()
				stats.Comms = schedule.NumComms()
				stats.Elapsed = time.Since(start)
				stats.StepsSpent = s.stepsSpent()
				return schedule, stats, nil
			}
			if !deduce.IsContradiction(err) {
				rec.Outcome = AttemptErrored
				stats.Attempts = append(stats.Attempts, rec)
				stats.Elapsed = time.Since(start)
				stats.StepsSpent = s.stepsSpent()
				return nil, stats, s.mapErr(err)
			}
			rec.Outcome = AttemptContradicted
			stats.Attempts = append(stats.Attempts, rec)
			if s.base == nil {
				// The setup contradicted: every variant starts from it.
				break
			}
		}
		for _, succ := range s.bumpSuccessors(vector) {
			queue.push(succ)
		}
	}
	stats.Elapsed = time.Since(start)
	stats.StepsSpent = s.stepsSpent()
	return nil, stats, s.stopErr(false)
}

// reached reports whether an AWCT reaches the ceiling, so that nothing
// at or above it can beat the caller's schedule.
func (s *scheduler) reached(awct float64) bool {
	return s.opts.Ceiling > 0 && awct >= s.opts.Ceiling-awctEps
}

// stopErr is the verdict when the AWCT enumeration ends without a
// schedule: ErrNoBetter when it stopped at the ceiling, exhaustion
// otherwise. The deadline may have expired between checkTime polls —
// e.g. during a stage whose contradictions mask the budget's deadline
// signal — and an expired deadline is a timeout, never either of them.
func (s *scheduler) stopErr(atCeiling bool) error {
	if err := s.checkTime(); err != nil {
		return err
	}
	if atCeiling {
		return ErrNoBetter
	}
	return fmt.Errorf("%w: no schedule within %d AWCT values", ErrExhausted, maxAWCTIters)
}

// newScheduler precomputes the immutable search context. tail[u] is the
// longest "completion tail" hanging off u — the largest d(u,n) + λ(n)
// over all reachable nodes n; everything must complete by the region
// end, so any exit-deadline vector must keep deadline(u) + tail(u) ≤
// deadline(last) + λ(last).
func newScheduler(sb *ir.Superblock, m *machine.Config, opts Options) *scheduler {
	opts = opts.withDefaults()
	s := &scheduler{
		sb:    sb,
		m:     m,
		g:     sg.Build(sb, m),
		opts:  opts,
		dist:  sb.LongestDist(),
		arena: deduce.NewArena(),
	}
	s.tail = make([]int, sb.N())
	for u := 0; u < sb.N(); u++ {
		for n := 0; n < sb.N(); n++ {
			if d := s.dist[u][n]; d != ir.NegInf {
				if v := d + sb.Instrs[n].Latency; v > s.tail[u] {
					s.tail[u] = v
				}
			}
		}
	}
	if opts.MaxSteps > 0 {
		s.budget = deduce.NewBudget(opts.MaxSteps)
	}
	return s
}

// mapErr translates internal abort signals into the package's public
// errors: a budget abort caused by the wall clock is a timeout, a
// step-count abort is search exhaustion.
func (s *scheduler) mapErr(err error) error {
	if errors.Is(err, deduce.ErrBudget) {
		if s.checkTime() != nil {
			return ErrTimeout
		}
		return fmt.Errorf("%w: %v", ErrExhausted, err)
	}
	return err
}

func (s *scheduler) stepsSpent() int { return s.budget.Used() }

// checkTime aborts between stage iterations on deadline expiry; the
// deduce.Budget performs the same check deep inside propagation runs.
func (s *scheduler) checkTime() error {
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return ErrTimeout
	}
	return nil
}

// exits returns the block's exits in vector-slot order.
func (s *scheduler) exits() []int { return s.sb.Exits() }

func (s *scheduler) awctOf(vector []int) float64 {
	cyc := make(map[int]int, len(vector))
	for i, x := range s.exits() {
		cyc[x] = vector[i]
	}
	return s.sb.AWCT(cyc)
}

func (s *scheduler) deadlinesOf(vector []int) map[int]int {
	d := make(map[int]int, len(vector))
	for i, x := range s.exits() {
		d[x] = vector[i]
	}
	return d
}

// horizon is a generous upper bound on any sensible schedule length:
// every instruction serialized plus communication room for every value.
func (s *scheduler) horizon() int {
	h := 0
	for _, in := range s.sb.Instrs {
		h += in.Latency
	}
	return h + (s.sb.N()+len(s.sb.LiveIns)+1)*s.m.BusLatency + 4
}

// enhancedExitEsts computes the per-exit earliest starts enhanced by the
// DP (Section 4.2): starting from the dependence-based earliest starts,
// each exit is probed with the others relaxed to the horizon; if the DP
// refutes the exit at its current cycle, the cycle is bumped. Only a
// contradiction the DP derived refutes a cycle: an injected one
// (faultpoint.ErrInjected) proves nothing and is returned as the
// error, like any other failure of a probe.
//
// Two kinds of probe are skipped as already known. An exit whose probe
// succeeded is not probed again: estimates only rise, so every later
// probe of it would give every exit a later deadline, and a deduction
// that found no contradiction under tighter deadlines finds none under
// looser ones. And the vector is a lower bound at every step: once its
// AWCT reaches the ceiling the search cannot beat the caller's
// schedule, and the probes stop there.
func (s *scheduler) enhancedExitEsts() ([]int, error) {
	exits := s.exits()
	base := s.sb.EStarts()
	ests := make([]int, len(exits))
	for i, x := range exits {
		ests[i] = base[x]
	}
	// The final exit's completion ends the region, so it cannot precede
	// the completion of any other instruction (dangling chains
	// included).
	last := len(exits) - 1
	lastLat := s.sb.Instrs[exits[last]].Latency
	for n := 0; n < s.sb.N(); n++ {
		if v := base[n] + s.sb.Instrs[n].Latency - lastLat; v > ests[last] {
			ests[last] = v
		}
	}
	// Every bump below is proven, and so is this start, so the vector is
	// a lower bound all along.
	atCeiling := func() bool { return s.opts.Ceiling > 0 && s.reached(s.awctOf(ests)) }
	if atCeiling() {
		return ests, nil
	}
	h := s.horizon()
	proven := make([]bool, len(exits)) // the exit's probe succeeded
	// Every probe sets every exit's deadline, and its state is dead by
	// the next one, so one map serves them all.
	deadlines := make(map[int]int, len(exits))
	const maxBumps = 24
	for bumps := 0; bumps < maxBumps; bumps++ {
		moved := false
		for i, x := range exits {
			if proven[i] {
				continue
			}
			for j, z := range exits {
				if i == j {
					deadlines[z] = ests[j]
				} else {
					deadlines[z] = ests[j] + h
				}
			}
			err := s.probe(deadlines)
			if err == nil {
				proven[i] = true
				continue
			}
			if !deduce.IsContradiction(err) || errors.Is(err, faultpoint.ErrInjected) {
				return nil, err
			}
			ests[i]++
			// Pushing x may push later exits via dependences.
			for j, z := range exits {
				if d := s.dist[x][z]; d != ir.NegInf && ests[j] < ests[i]+d {
					ests[j] = ests[i] + d
				}
			}
			if atCeiling() {
				return ests, nil
			}
			moved = true
		}
		if !moved {
			break
		}
	}
	return ests, nil
}

// safeExitEsts runs the enhanced-lower-bound computation with panic
// recovery: a crash while probing the minimum AWCT becomes a
// *PanicError in stage "min-awct".
func (s *scheduler) safeExitEsts() (ests []int, err error) {
	defer recoverToError("min-awct", nil, &err)
	return s.enhancedExitEsts()
}

// probe builds a state (exits bounded, not pinned) and shaves it.
func (s *scheduler) probe(deadlines map[int]int) error {
	st, err := deduce.NewState(s.sb, s.m, s.g, deadlines, s.stateOpts(false))
	if err != nil {
		return err
	}
	return st.Shave(shaveRounds)
}

func (s *scheduler) stateOpts(pinExits bool) deduce.Options {
	return deduce.Options{Pins: s.opts.Pins, Budget: s.budget, PinExits: pinExits, Arena: s.arena}
}

// bumpCandidates returns the exits that can move one cycle without
// pushing any other exit (Section 4.2's condition): dependence distances
// to the other exits stay satisfied and the exit's completion tail
// (dangling successors included) still fits before the region end. The
// final exit always qualifies (moving it grows the region).
func (s *scheduler) bumpCandidates(vector []int) []int {
	exits := s.exits()
	last := exits[len(exits)-1]
	end := vector[len(exits)-1] + s.sb.Instrs[last].Latency
	var out []int
	for i, x := range exits {
		ok := true
		for j, z := range exits {
			if i == j {
				continue
			}
			if d := s.dist[x][z]; d != ir.NegInf && vector[i]+1+d > vector[j] {
				ok = false
				break
			}
		}
		if ok && x != last && vector[i]+1+s.tail[x] > end {
			ok = false
		}
		if ok {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		out = append(out, len(exits)-1)
	}
	return out
}

// bumpSuccessors returns every vector reachable by moving one qualifying
// exit one cycle later.
func (s *scheduler) bumpSuccessors(vector []int) [][]int {
	var out [][]int
	for _, i := range s.bumpCandidates(vector) {
		next := append([]int(nil), vector...)
		next[i]++
		out = append(out, next)
	}
	return out
}

// vectorQueue is a small best-first queue of exit-cycle vectors ordered
// by AWCT, with visited-deduplication.
type vectorQueue struct {
	s       *scheduler
	items   [][]int
	awct    []float64
	visited map[string]bool
}

func newVectorQueue(s *scheduler) *vectorQueue {
	return &vectorQueue{s: s, visited: make(map[string]bool)}
}

func (q *vectorQueue) key(v []int) string {
	b := make([]byte, 0, len(v)*3)
	for _, x := range v {
		b = append(b, byte(x), byte(x>>8), ';')
	}
	return string(b)
}

func (q *vectorQueue) push(v []int) {
	k := q.key(v)
	if q.visited[k] {
		return
	}
	q.visited[k] = true
	q.items = append(q.items, v)
	q.awct = append(q.awct, q.s.awctOf(v))
}

// pop removes and returns the lowest-AWCT vector and its AWCT.
func (q *vectorQueue) pop() ([]int, float64, bool) {
	if len(q.items) == 0 {
		return nil, 0, false
	}
	best := 0
	for i := 1; i < len(q.items); i++ {
		if q.awct[i] < q.awct[best]-1e-12 {
			best = i
		}
	}
	v, awct := q.items[best], q.awct[best]
	q.items[best] = q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	q.awct[best] = q.awct[len(q.awct)-1]
	q.awct = q.awct[:len(q.awct)-1]
	return v, awct, true
}

// safeAttempt is attempt with panic recovery: a crash anywhere in the
// six stages is converted into a *PanicError carrying the stage that
// was running, the exit-cycle vector and the stack, so one broken
// block cannot take down a batch or a service worker.
func (s *scheduler) safeAttempt(vector []int) (schedule *sched.Schedule, err error) {
	defer func() {
		if r := recover(); r != nil {
			schedule = nil
			err = &PanicError{
				Stage:  s.curStage,
				Vector: append([]int(nil), vector...),
				Value:  r,
				Stack:  debug.Stack(),
			}
		}
	}()
	return s.attempt(vector)
}

// setup builds the state of an exit vector, with the exits pinned to
// it, and shaves it: the part of an attempt no variant changes.
func (s *scheduler) setup(vector []int) (*deduce.State, error) {
	s.curStage = "setup"
	st, err := deduce.NewState(s.sb, s.m, s.g, s.deadlinesOf(vector), s.stateOpts(true))
	if err != nil {
		return nil, err
	}
	s.curStage = "shave"
	if err := st.Shave(shaveRounds); err != nil {
		return nil, err
	}
	return st, nil
}

// attempt searches for a valid schedule with the exits pinned to the
// given cycle vector. The vector's setup does not depend on the
// variant, so variant 0 runs it and saves its result (s.base), and
// later variants restore that copy instead of running it again; s.base
// stays nil when the setup failed.
func (s *scheduler) attempt(vector []int) (*sched.Schedule, error) {
	if s.variant == 0 {
		s.base = nil
		st, err := s.setup(vector)
		if err != nil {
			return nil, err
		}
		st.Save()
		s.base = st
	} else {
		s.curStage = "restore"
		s.base.Restore()
	}
	return s.runStages(s.base)
}

// runStages runs the five stages on a set-up state and extracts the
// schedule.
func (s *scheduler) runStages(st *deduce.State) (*sched.Schedule, error) {
	stages := []struct {
		name string
		run  func(*deduce.State) error
	}{
		{"combinations", s.stageCombinations},
		{"fix-instrs", s.stageFixInstrs},
		{"outedges", s.stageOutedges},
		{"mapping", s.stageMapping},
		{"fix-copies", s.stageFixCopies},
	}
	for _, stage := range stages {
		s.curStage = stage.name
		if err := s.checkTime(); err != nil {
			return nil, err
		}
		if err := injectStageFault("core.stage"); err != nil {
			return nil, err
		}
		if err := stage.run(st); err != nil {
			if s.opts.Trace != nil {
				s.opts.Trace("  stage %s: %v", stage.name, err)
			}
			return nil, err
		}
	}
	s.curStage = "extract"
	if !st.AllPairsResolved() {
		return nil, fmt.Errorf("%w: unresolved pairs remain", deduce.ErrContradiction)
	}
	schedule, err := st.ExtractSchedule()
	if err != nil {
		return nil, err
	}
	if err := schedule.Validate(); err != nil {
		return nil, fmt.Errorf("%w: extracted schedule invalid: %v", deduce.ErrContradiction, err)
	}
	return schedule, nil
}
