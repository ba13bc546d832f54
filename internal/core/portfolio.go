package core

import (
	"errors"
	"sort"
	"sync"
	"time"

	"vcsched/internal/deduce"
	"vcsched/internal/sched"
)

// The parallel portfolio driver.
//
// For every exit-cycle vector the serial driver tries Options.Retries
// perturbed decision orders in sequence; the attempts are independent
// (each builds a fresh deduce.State from the immutable superblock,
// machine and scheduling graph), so they can run concurrently. The
// driver below runs them on Options.Parallelism workers, each with its
// own scheduler copy and deduce.Budget — no shared mutable state — and
// speculates one AWCT vector ahead when workers would otherwise idle.
//
// Determinism. The serial driver commits the first success in
// lexicographic (vector enumeration index, variant) order, so the
// parallel driver does the same: a success at position p is committed
// only once every attempt ordered before p has been refuted; successes
// at positions after p are discarded and their workers cancelled. The
// speculative vector chain is sound because the vector following v is a
// deterministic function of v alone (push v's bump successors, pop the
// best-AWCT vector): the chain equals the serial pop order under the
// speculation hypothesis that v fails, and when v succeeds instead,
// everything past it is discarded.
//
// Budget replay. In serial mode one step budget of MaxSteps is shared
// by the bound probes and every attempt, so the serial search dies of
// exhaustion as soon as the running total crosses MaxSteps — possibly
// in the middle of an attempt that would otherwise have contradicted or
// succeeded. Each parallel attempt runs on its own budget (workers
// cannot meaningfully share a step counter), but an attempt's full step
// count is a deterministic function of its input, so the driver replays
// the serial accounting after the fact: walking attempts in serial
// order and accumulating their step counts, the first position where
// the total would cross MaxSteps is exactly where the serial search
// died, and the driver returns the same exhaustion error there — even
// if the parallel attempt at that position (or a later one) found a
// schedule. Hence the outcome, schedule and error alike, is
// bit-identical to the serial driver's in every case; only wall-clock
// time changes. The replay also bounds total parallel work: no attempt
// beyond the serial death point is needed, so the portfolio spends
// O(MaxSteps) deduction steps plus a bounded speculation overshoot.

// pfJob is one attempt handed to a portfolio worker.
type pfJob struct {
	seq     int // index of the vector in the speculative enumeration chain
	variant int
	vector  []int
	cancel  chan struct{}
}

// pfResult is what a worker reports back.
type pfResult struct {
	seq      int
	variant  int
	schedule *sched.Schedule
	err      error
	steps    int
}

// pfSlot is the driver-side resolution state of one (seq, variant).
const (
	pfPending uint8 = iota
	pfRunning
	pfContradicted
	pfSucceeded
	pfCancelled
	pfErrored
)

// pfBefore orders attempt positions the way the serial driver visits
// them.
func pfBefore(seqA, varA, seqB, varB int) bool {
	if seqA != seqB {
		return seqA < seqB
	}
	return varA < varB
}

// runAttempt executes one portfolio attempt on a private scheduler copy:
// own variant, own cancellation channel and own deduction budget, so
// workers never share mutable state. The immutable search context
// (superblock, machine, SG, distance matrix, tails) is shared read-only.
func (s *scheduler) runAttempt(jb pfJob) pfResult {
	w := *s
	w.variant = s.opts.VariantOffset + jb.variant
	w.cancel = jb.cancel
	// Each worker needs a private arena: the copied scheduler would
	// otherwise share s.arena across concurrent goroutines.
	w.arena = deduce.NewArena()
	steps := s.opts.MaxSteps
	if steps < 0 {
		steps = 0 // unlimited
	}
	w.budget = deduce.NewBudget(steps)
	if !s.deadline.IsZero() {
		w.budget.SetDeadline(s.deadline)
	}
	w.budget.SetCancel(jb.cancel)
	// safeAttempt, not attempt: an unrecovered panic here would unwind a
	// worker goroutine and kill the process.
	schedule, err := w.safeAttempt(jb.vector)
	return pfResult{seq: jb.seq, variant: jb.variant, schedule: schedule, err: err, steps: w.stepsSpent()}
}

// schedulePortfolio is the parallel counterpart of the serial loop in
// Schedule. ests is the enhanced initial exit vector; stats is filled
// with the same deterministic values the serial driver would report for
// the committed outcome (AWCTTried, per-attempt records), plus the
// parallel-only cancellation accounting.
func (s *scheduler) schedulePortfolio(stats *Stats, ests []int) (*sched.Schedule, error) {
	opts := s.opts
	retries := opts.Retries

	// Speculative vector chain: vectors[k] is the k-th vector the serial
	// driver would pop assuming every earlier vector fails.
	queue := newVectorQueue(s)
	queue.push(append([]int(nil), ests...))
	var vectors [][]int
	chainDone := false // the queue ran dry or MaxAWCTIters was reached
	extendChain := func() bool {
		if chainDone || len(vectors) >= opts.MaxAWCTIters {
			chainDone = true
			return false
		}
		if len(vectors) > 0 {
			for _, succ := range s.bumpSuccessors(vectors[len(vectors)-1]) {
				queue.push(succ)
			}
		}
		v, ok := queue.pop()
		if !ok {
			chainDone = true
			return false
		}
		vectors = append(vectors, v)
		return true
	}
	extendChain()

	jobs := make(chan pfJob)
	results := make(chan pfResult, opts.Parallelism)
	var wg sync.WaitGroup
	for w := 0; w < opts.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				results <- s.runAttempt(jb)
			}
		}()
	}

	state := make(map[[2]int]uint8) // (seq, variant) → pfSlot state
	resolved := make(map[[2]int]pfResult)
	running := make(map[[2]int]chan struct{})
	// best is the lowest-ordered decisive result so far: a success or a
	// terminal error. Everything ordered after it is moot, but best
	// itself is only a gate for dispatch and cancellation — the final
	// outcome comes from the serial-order walk below, which may refute
	// best with a budget death at a lower position.
	var best *pfResult
	bestLess := func(seq, variant int) bool {
		return best == nil || pfBefore(seq, variant, best.seq, best.variant)
	}
	outstanding := 0
	nextSeq, nextVariant := 0, 0
	frontier := 0 // lowest seq not yet fully contradicted
	contradicted := make(map[int]int)

	// Serial budget replay: the serial search shares one budget of
	// MaxSteps between the bound probes (already spent from s.budget)
	// and every attempt, in visit order.
	budgetBase := s.budget.Used()
	limited := opts.MaxSteps > 0

	// decide walks the attempts in serial visit order and returns the
	// outcome the serial driver would have reached, or decided=false
	// while an attempt on the serial path is still unresolved. seq is
	// the vector index the serial search ended on (AWCTTried-1).
	type verdict struct {
		decided  bool
		schedule *sched.Schedule
		err      error // nil on success; non-nil terminal error otherwise
		seq      int
	}
	decide := func() verdict {
		cum := budgetBase
		for seq := 0; ; seq++ {
			if seq >= len(vectors) {
				if chainDone {
					// Every vector of the complete chain contradicted
					// within budget: serial exhaustion (or a timeout, if
					// the deadline expired on the way — exhaustErr checks).
					return verdict{decided: true, seq: len(vectors) - 1, err: s.exhaustErr()}
				}
				return verdict{}
			}
			for v := 0; v < retries; v++ {
				r, ok := resolved[[2]int{seq, v}]
				if !ok || state[[2]int{seq, v}] == pfCancelled {
					// Unresolved (or aborted by a cancellation that the
					// serial replay cannot account for — only possible
					// behind a decisive result, so never reached).
					return verdict{}
				}
				if limited && cum+r.steps > opts.MaxSteps {
					// The shared serial budget dies inside this attempt,
					// whatever its full run would have concluded.
					return verdict{decided: true, seq: seq, err: s.mapErr(deduce.ErrBudget)}
				}
				cum += r.steps
				switch state[[2]int{seq, v}] {
				case pfSucceeded:
					return verdict{decided: true, schedule: r.schedule, seq: seq}
				case pfErrored:
					return verdict{decided: true, err: s.mapErr(r.err), seq: seq}
				}
			}
		}
	}
	cancelAfter := func(seq, variant int) {
		for key, ch := range running {
			if pfBefore(seq, variant, key[0], key[1]) {
				close(ch)
				delete(running, key)
			}
		}
	}
	handle := func(r pfResult) {
		outstanding--
		key := [2]int{r.seq, r.variant}
		delete(running, key)
		resolved[key] = r
		rec := Attempt{AWCTIndex: r.seq, Variant: r.variant, Steps: r.steps}
		switch {
		case r.err == nil:
			state[key] = pfSucceeded
			rec.Outcome = AttemptSucceeded
			if bestLess(r.seq, r.variant) {
				rr := r
				best = &rr
				cancelAfter(r.seq, r.variant)
			}
		case errors.Is(r.err, deduce.ErrCancelled):
			state[key] = pfCancelled
			rec.Outcome = AttemptCancelled
			stats.AttemptsCancelled++
		case deduce.IsContradiction(r.err):
			state[key] = pfContradicted
			rec.Outcome = AttemptContradicted
			if contradicted[r.seq]++; contradicted[r.seq] == retries {
				for frontier < len(vectors) && contradicted[frontier] == retries {
					frontier++
				}
			}
		default:
			// Terminal error (budget or deadline): the serial driver
			// would abort the whole search here.
			state[key] = pfErrored
			rec.Outcome = AttemptErrored
			if bestLess(r.seq, r.variant) {
				rr := r
				best = &rr
				cancelAfter(r.seq, r.variant)
			}
		}
		stats.Attempts = append(stats.Attempts, rec)
		stats.StepsSpent += r.steps
		if s.opts.Trace != nil {
			s.opts.Trace("portfolio result seq=%d variant=%d outcome=%v err=%v", r.seq, r.variant, rec.Outcome, r.err)
		}
	}

	timedOut := false
	var final verdict
	for {
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			timedOut = true
			break
		}
		if final = decide(); final.decided {
			break
		}
		// Pick the next job to dispatch, if dispatching is useful: the
		// position must precede any decisive result and stay within one
		// speculative vector of the frontier.
		var jobsCh chan pfJob
		var next pfJob
		for nextSeq < len(vectors) || extendChain() {
			if nextVariant >= retries {
				nextSeq, nextVariant = nextSeq+1, 0
				continue
			}
			break
		}
		canDispatch := nextSeq < len(vectors) && nextVariant < retries &&
			bestLess(nextSeq, nextVariant) && nextSeq <= frontier+1
		if canDispatch {
			ch := make(chan struct{})
			next = pfJob{seq: nextSeq, variant: nextVariant, vector: vectors[nextSeq], cancel: ch}
			jobsCh = jobs
		}
		if jobsCh == nil && outstanding == 0 {
			// Nothing running and nothing worth launching: either the
			// chain is finished (exhaustion) or a decisive result is
			// still blocked by unresolved lower attempts — impossible
			// with outstanding == 0, so this is exhaustion.
			break
		}
		if jobsCh == nil {
			handle(<-results)
			continue
		}
		select {
		case jobsCh <- next:
			key := [2]int{next.seq, next.variant}
			state[key] = pfRunning
			running[key] = next.cancel
			outstanding++
			stats.AttemptsLaunched++
			nextVariant++
		case r := <-results:
			handle(r)
		}
	}

	// Shut the pool down: stop dispatching, cancel whatever still runs,
	// and drain so no goroutine leaks.
	close(jobs)
	for _, ch := range running {
		close(ch)
	}
	running = nil
	for outstanding > 0 {
		handle(<-results)
	}
	wg.Wait()

	sort.Slice(stats.Attempts, func(i, j int) bool {
		a, b := stats.Attempts[i], stats.Attempts[j]
		return pfBefore(a.AWCTIndex, a.Variant, b.AWCTIndex, b.Variant)
	})
	stats.StepsSpent += s.budget.Used() // bound probes before the portfolio

	if timedOut {
		stats.AWCTTried = len(vectors)
		return nil, ErrTimeout
	}
	if !final.decided {
		// The dispatch loop broke with nothing running and nothing to
		// launch; stragglers drained above may have completed the serial
		// path. A decision, once reached, is final — every attempt
		// before its position is resolved and immutable.
		final = decide()
	}
	if final.decided {
		stats.AWCTTried = final.seq + 1
		if final.err == nil {
			stats.FinalAWCT = final.schedule.AWCT()
			stats.Comms = final.schedule.NumComms()
			return final.schedule, nil
		}
		return nil, final.err
	}
	stats.AWCTTried = len(vectors)
	return nil, s.exhaustErr()
}
