// Package cars implements the baseline the paper compares against:
// CARS (Kailas, Ebcioglu, Agrawala, "CARS: A New Code Generation
// Framework for Clustered ILP Processors", HPCA 2001) — a single-phase
// list scheduler that assigns each instruction to a cluster at the
// moment it is scheduled.
//
// The scheduler is cycle-driven: at each cycle the ready instructions
// are visited in priority order (longest weighted path to the exits
// first); for each, every cluster is evaluated for the earliest cycle
// the instruction could issue there (functional unit availability,
// operand arrival — including a bus slot for a new copy when an operand
// lives in another cluster), and the cluster that allows issuing *now*
// with the fewest new communications and the lightest load wins.
// Communications are committed on the fly, one broadcast per value, the
// same machine model the virtual-cluster scheduler uses.
package cars

import (
	"fmt"

	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
)

// Schedule list-schedules the superblock with integrated cluster
// assignment. It always succeeds on valid inputs (given enough cycles);
// an error indicates an impossible machine (e.g. a class with no units)
// or an internal inconsistency.
func Schedule(sb *ir.Superblock, m *machine.Config, pins sched.Pins) (*sched.Schedule, error) {
	// Fault point for exercising the degradation ladder's last rung:
	// KindPanic panics inside Fire; any other armed kind becomes a
	// scheduling error.
	if f, ok := faultpoint.Fire("cars.schedule"); ok {
		return nil, fmt.Errorf("cars: injected fault (%v)", f.Kind)
	}
	if err := m.CheckUnits(sb); err != nil {
		return nil, fmt.Errorf("cars: %w", err)
	}
	s := &state{
		sb:       sb,
		m:        m,
		out:      sched.New(sb, m, pins),
		prio:     priorities(sb),
		fuBusy:   make(map[fuSlot]int),
		busBusy:  make(map[int]int),
		commOf:   make(map[int]int),
		liveHome: make(map[int][]int),
	}
	for oi, u := range sb.LiveOuts {
		s.liveHome[u] = append(s.liveHome[u], pins.LiveOut[oi])
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.out, nil
}

type fuSlot struct {
	cycle, cluster int
	class          ir.Class
}

type state struct {
	sb   *ir.Superblock
	m    *machine.Config
	out  *sched.Schedule
	prio []float64

	fuBusy   map[fuSlot]int
	busBusy  map[int]int
	commOf   map[int]int   // value (instr id or −(li+1)) → committed comm cycle
	liveHome map[int][]int // live-out producer → pinned cluster(s)

	scheduled int
}

// priorities computes the list-scheduling priority: the longest
// dependence path from the instruction to the completion of any exit,
// weighted by the exit probability mass it gates. Higher is more urgent.
func priorities(sb *ir.Superblock) []float64 {
	n := sb.N()
	// Longest path to each exit's completion.
	depth := make([]int, n)
	order := sb.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		d := sb.Instrs[u].Latency
		for _, ei := range sb.OutEdges(u) {
			e := sb.Edges[ei]
			if v := e.Latency + depth[e.To]; v > d {
				d = v
			}
		}
		depth[u] = d
	}
	prio := make([]float64, n)
	for u := 0; u < n; u++ {
		prio[u] = float64(depth[u])
		if sb.Instrs[u].IsExit() {
			// Exits with higher probability matter more to the AWCT.
			prio[u] += sb.Instrs[u].Prob
		}
	}
	return prio
}

// horizon bounds the cycle-driven loop.
func (s *state) horizon() int {
	h := 4
	for _, in := range s.sb.Instrs {
		h += in.Latency + 2*s.m.BusLatency
	}
	return h
}

func (s *state) run() error {
	n := s.sb.N()
	horizon := s.horizon()
	for t := 0; s.scheduled < n; t++ {
		if t > horizon {
			return fmt.Errorf("cars: no progress by cycle %d (scheduled %d/%d)", t, s.scheduled, n)
		}
		for {
			u := s.pickReady(t)
			if u < 0 {
				break
			}
			if !s.tryPlace(u, t) {
				// The best the instruction can do is a later cycle; mark
				// it deferred for this cycle by moving on. pickReady
				// skips instructions that cannot issue at t.
				break
			}
		}
	}
	return nil
}

// pickReady returns the highest-priority unscheduled instruction whose
// predecessors are all scheduled and which can issue at cycle t in at
// least one cluster, or −1.
func (s *state) pickReady(t int) int {
	best := -1
	for u := 0; u < s.sb.N(); u++ {
		if s.out.Place[u].Cycle != sched.Unplaced {
			continue
		}
		if !s.predsDone(u) {
			continue
		}
		if _, ok := s.bestCluster(u, t); !ok {
			continue
		}
		if best < 0 || s.prio[u] > s.prio[best] || (s.prio[u] == s.prio[best] && u < best) {
			best = u
		}
	}
	return best
}

func (s *state) predsDone(u int) bool {
	for _, ei := range s.sb.InEdges(u) {
		if s.out.Place[s.sb.Edges[ei].From].Cycle == sched.Unplaced {
			return false
		}
	}
	// The final exit ends the region, so it waits until every other
	// instruction is scheduled (their completions and copies must fit
	// before the region end).
	exits := s.sb.Exits()
	if len(exits) > 0 && u == exits[len(exits)-1] {
		if s.scheduled != s.sb.N()-1 {
			return false
		}
	}
	return true
}

// placement describes how instruction u would issue at (t, k): which new
// communications must be committed first.
type placement struct {
	newComms []sched.Comm
}

// bestCluster evaluates all clusters for issuing u exactly at cycle t
// and returns the winner by (fewest new comms, lightest cluster load,
// lowest index).
func (s *state) bestCluster(u, t int) (int, bool) {
	bestK, bestComms, bestLoad := -1, 0, 0
	for k := 0; k < s.m.Clusters; k++ {
		pl, ok := s.feasibleAt(u, t, k)
		if !ok {
			continue
		}
		load := s.clusterLoad(k)
		if bestK < 0 || len(pl.newComms) < bestComms ||
			(len(pl.newComms) == bestComms && load < bestLoad) {
			bestK, bestComms, bestLoad = k, len(pl.newComms), load
		}
	}
	return bestK, bestK >= 0
}

func (s *state) clusterLoad(k int) int {
	load := 0
	for _, p := range s.out.Place {
		if p.Cycle != sched.Unplaced && p.Cluster == k {
			load++
		}
	}
	return load
}

// feasibleAt checks whether u can issue at cycle t in cluster k, and
// which new communications that requires.
func (s *state) feasibleAt(u, t, k int) (placement, bool) {
	in := s.sb.Instrs[u]
	if s.m.ClusterFU(k, in.Class) == 0 {
		return placement{}, false
	}
	if s.fuBusy[fuSlot{t, k, in.Class}] >= s.m.ClusterFU(k, in.Class) {
		return placement{}, false
	}
	var pl placement
	pending := make(map[int]int) // value → tentative comm cycle
	// Dependences.
	for _, ei := range s.sb.InEdges(u) {
		e := s.sb.Edges[ei]
		p := s.out.Place[e.From]
		if e.Kind == ir.Ctrl || p.Cluster == k {
			if t < p.Cycle+e.Latency {
				return placement{}, false
			}
			continue
		}
		ready := p.Cycle + s.sb.Instrs[e.From].Latency
		if !s.operandViaBus(e.From, ready, t, pending) {
			return placement{}, false
		}
	}
	// Live-in operands.
	for li := range s.sb.LiveIns {
		for _, c := range s.sb.LiveIns[li].Consumers {
			if c != u {
				continue
			}
			if s.out.Pins.LiveIn[li] == k {
				continue
			}
			if !s.operandViaBus(-(li + 1), 0, t, pending) {
				return placement{}, false
			}
		}
	}
	// The final exit ends the region at t + λ: every instruction must
	// have completed and every copy (committed or tentative) arrived.
	exits := s.sb.Exits()
	if len(exits) > 0 && u == exits[len(exits)-1] {
		end := t + in.Latency
		for v, q := range s.out.Place {
			if v != u && q.Cycle != sched.Unplaced && q.Cycle+s.sb.Instrs[v].Latency > end {
				return placement{}, false
			}
		}
		for _, cc := range s.commOf {
			if cc+s.m.BusLatency > end {
				return placement{}, false
			}
		}
		for _, cc := range pending {
			if cc+s.m.BusLatency > end {
				return placement{}, false
			}
		}
		for _, p := range s.sb.LiveOuts {
			if p == u || !s.needsLiveOutComm(p) {
				continue
			}
			if _, ok := s.commOf[p]; !ok {
				return placement{}, false // copy not yet committed: wait
			}
		}
	}
	for v, c := range pending {
		pl.newComms = append(pl.newComms, sched.Comm{Producer: v, Cycle: c})
	}
	return pl, true
}

// operandViaBus checks that the given value can reach a foreign cluster
// by cycle t, reusing the committed broadcast or tentatively scheduling
// a new one (earliest bus slot at or after ready, arriving by t).
func (s *state) operandViaBus(value, ready, t int, pending map[int]int) bool {
	if c, ok := s.commOf[value]; ok {
		return c+s.m.BusLatency <= t
	}
	if c, ok := pending[value]; ok {
		return c+s.m.BusLatency <= t
	}
	slot, ok := s.busSlot(ready, t-s.m.BusLatency, pending)
	if !ok {
		return false
	}
	pending[value] = slot
	return true
}

// needsLiveOutComm reports whether the (scheduled) live-out producer u
// must broadcast its value: some pinned home cluster differs from its
// own.
func (s *state) needsLiveOutComm(u int) bool {
	homes, isLive := s.liveHome[u]
	if !isLive || s.out.Place[u].Cycle == sched.Unplaced {
		return false
	}
	for _, home := range homes {
		if home != s.out.Place[u].Cluster {
			return true
		}
	}
	return false
}

// busSlot finds the earliest cycle in [from, to] where a bus is free
// (accounting for occupancy and tentative comms).
func (s *state) busSlot(from, to int, pending map[int]int) (int, bool) {
	if s.m.Buses < 1 {
		return 0, false
	}
	occ := s.m.BusOccupancy()
	for c := from; c <= to; c++ {
		free := true
		for tt := c; tt < c+occ; tt++ {
			use := s.busBusy[tt]
			for _, pc := range pending {
				if tt >= pc && tt < pc+occ {
					use++
				}
			}
			if use >= s.m.Buses {
				free = false
				break
			}
		}
		if free {
			return c, true
		}
	}
	return 0, false
}

// tryPlace commits u at cycle t in its best cluster; returns false when
// no cluster can issue it at t.
func (s *state) tryPlace(u, t int) bool {
	k, ok := s.bestCluster(u, t)
	if !ok {
		return false
	}
	pl, ok := s.feasibleAt(u, t, k)
	if !ok {
		return false
	}
	in := s.sb.Instrs[u]
	s.out.Place[u] = sched.Placement{Cycle: t, Cluster: k}
	s.fuBusy[fuSlot{t, k, in.Class}]++
	s.scheduled++
	occ := s.m.BusOccupancy()
	for _, c := range pl.newComms {
		s.out.Comms = append(s.out.Comms, c)
		s.commOf[c.Producer] = c.Cycle
		for tt := c.Cycle; tt < c.Cycle+occ; tt++ {
			s.busBusy[tt]++
		}
	}
	// A live-out produced off its home cluster commits its copy as soon
	// as the value is ready (keeping the End constraint satisfiable).
	if s.needsLiveOutComm(u) {
		if _, done := s.commOf[u]; !done {
			ready := t + in.Latency
			if slot, ok := s.busSlot(ready, ready+s.horizon(), nil); ok {
				s.out.Comms = append(s.out.Comms, sched.Comm{Producer: u, Cycle: slot})
				s.commOf[u] = slot
				for tt := slot; tt < slot+occ; tt++ {
					s.busBusy[tt]++
				}
			}
		}
	}
	return true
}
