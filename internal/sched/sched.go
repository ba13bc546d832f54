// Package sched represents final schedules for clustered VLIW machines
// and validates them cycle-accurately: dependence latencies, functional
// unit capacity per cluster, bus capacity and occupancy, inter-cluster
// communication legality, live-in/live-out placement, and the
// one-communication-per-value rule. Both the virtual-cluster scheduler
// and the CARS baseline emit this representation, so the validator is
// the single source of truth for schedule legality and AWCT.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// Unplaced is the Cycle value of an instruction that has not been
// scheduled.
const Unplaced = -1

// Placement locates one instruction in the schedule.
type Placement struct {
	Cycle   int
	Cluster int
}

// Comm is an inter-cluster communication: a copy instruction that reads
// a value in its producing cluster and broadcasts it on a bus, making it
// available in every other register file BusLatency cycles later. The
// model allows at most one communication per value (the paper's
// assumption).
//
// Producer >= 0 names the instruction whose value is copied; Producer <
// 0 encodes live-in index -(Producer+1) (a value available in its
// assigned cluster at cycle 0).
type Comm struct {
	Producer int
	Cycle    int
}

// LiveInComm constructs a Comm for live-in index li.
func LiveInComm(li, cycle int) Comm { return Comm{Producer: -(li + 1), Cycle: cycle} }

// IsLiveIn reports whether the communication moves a live-in value, and
// if so which one.
func (c Comm) IsLiveIn() (int, bool) {
	if c.Producer < 0 {
		return -(c.Producer + 1), true
	}
	return 0, false
}

// Pins records the pre-scheduling assignment of live-in and live-out
// values to physical clusters. Both schedulers must receive the same
// Pins for a fair comparison (the paper randomizes them once per block).
type Pins struct {
	LiveIn  []int // cluster per ir.Superblock.LiveIns index
	LiveOut []int // cluster per ir.Superblock.LiveOuts index
}

// Schedule is a complete placement of a superblock on a machine.
type Schedule struct {
	SB    *ir.Superblock
	Mach  *machine.Config
	Place []Placement // indexed by instruction ID
	Comms []Comm
	Pins  Pins
}

// New returns an empty schedule with every instruction unplaced.
func New(sb *ir.Superblock, m *machine.Config, pins Pins) *Schedule {
	pl := make([]Placement, sb.N())
	for i := range pl {
		pl[i] = Placement{Cycle: Unplaced}
	}
	return &Schedule{SB: sb, Mach: m, Place: pl, Pins: pins}
}

// ExitCycles returns the scheduled cycle of each exit, keyed by exit ID.
func (s *Schedule) ExitCycles() map[int]int {
	m := make(map[int]int, len(s.SB.Exits()))
	for _, x := range s.SB.Exits() {
		m[x] = s.Place[x].Cycle
	}
	return m
}

// ExitVector returns the scheduled cycle of each exit, in the order of
// the block's Exits: the vector ir.Superblock.AWCT weighs.
func (s *Schedule) ExitVector() []int {
	exits := s.SB.Exits()
	cycles := make([]int, len(exits))
	for i, x := range exits {
		cycles[i] = s.Place[x].Cycle
	}
	return cycles
}

// AWCT returns the average weighted completion time of the schedule.
func (s *Schedule) AWCT() float64 { return s.SB.AWCT(s.ExitVector()) }

// WeightedCycles returns the contribution of this schedule to whole-
// program execution: AWCT · execution count (the paper's TC(S) metric).
func (s *Schedule) WeightedCycles() float64 { return s.AWCT() * float64(s.SB.ExecCount) }

// EndCycle returns the cycle after which the region is over: completion
// of the final exit.
func (s *Schedule) EndCycle() int {
	last := s.SB.Exits()[len(s.SB.Exits())-1]
	return s.Place[last].Cycle + s.SB.Instrs[last].Latency
}

// Length returns the number of cycles the schedule occupies (EndCycle,
// as issue starts at cycle 0).
func (s *Schedule) Length() int { return s.EndCycle() }

// commFor returns the communication for the given producer (instruction
// ID, or negative live-in encoding), if any.
func (s *Schedule) commFor(producer int) (Comm, bool) {
	for _, c := range s.Comms {
		if c.Producer == producer {
			return c, true
		}
	}
	return Comm{}, false
}

// Validate checks the whole schedule. A nil error means the schedule is
// executable on the machine with the stated cycle counts.
func (s *Schedule) Validate() error {
	sb, m := s.SB, s.Mach
	if len(s.Place) != sb.N() {
		return fmt.Errorf("sched: placement table has %d entries for %d instructions", len(s.Place), sb.N())
	}
	end := s.EndCycle()
	for i, p := range s.Place {
		if p.Cycle == Unplaced {
			return fmt.Errorf("sched: instruction %d (%s) unplaced", i, sb.Instrs[i].Name)
		}
		if p.Cycle < 0 {
			return fmt.Errorf("sched: instruction %d at negative cycle %d", i, p.Cycle)
		}
		if p.Cluster < 0 || p.Cluster >= m.Clusters {
			return fmt.Errorf("sched: instruction %d in nonexistent cluster %d", i, p.Cluster)
		}
		// The region is over when the final exit completes; every
		// instruction must have completed by then.
		if p.Cycle+sb.Instrs[i].Latency > end {
			return fmt.Errorf("sched: instruction %d completes at %d, after region end %d",
				i, p.Cycle+sb.Instrs[i].Latency, end)
		}
	}
	if err := s.validateComms(); err != nil {
		return err
	}
	if err := s.validateDeps(); err != nil {
		return err
	}
	if err := s.validateResources(); err != nil {
		return err
	}
	if err := s.validateLive(); err != nil {
		return err
	}
	return nil
}

func (s *Schedule) validateComms() error {
	seen := make(map[int]bool, len(s.Comms))
	end := s.EndCycle()
	for _, c := range s.Comms {
		if seen[c.Producer] {
			return fmt.Errorf("sched: more than one communication for value of producer %d", c.Producer)
		}
		seen[c.Producer] = true
		if c.Cycle < 0 {
			return fmt.Errorf("sched: communication of %d at negative cycle %d", c.Producer, c.Cycle)
		}
		if c.Cycle+s.Mach.BusLatency > end {
			return fmt.Errorf("sched: communication of %d arrives at %d, after region end %d",
				c.Producer, c.Cycle+s.Mach.BusLatency, end)
		}
		if li, ok := c.IsLiveIn(); ok {
			if li >= len(s.SB.LiveIns) {
				return fmt.Errorf("sched: communication for nonexistent live-in %d", li)
			}
			continue
		}
		if c.Producer >= s.SB.N() {
			return fmt.Errorf("sched: communication for nonexistent instruction %d", c.Producer)
		}
		// The copy reads the producer's value: it may not issue before
		// the value is ready.
		ready := s.Place[c.Producer].Cycle + s.SB.Instrs[c.Producer].Latency
		if c.Cycle < ready {
			return fmt.Errorf("sched: communication of %d at cycle %d before value ready at %d", c.Producer, c.Cycle, ready)
		}
	}
	return nil
}

func (s *Schedule) validateDeps() error {
	sb := s.SB
	for _, e := range sb.Edges {
		from, to := s.Place[e.From], s.Place[e.To]
		if e.Kind == ir.Ctrl || from.Cluster == to.Cluster {
			if to.Cycle < from.Cycle+e.Latency {
				return fmt.Errorf("sched: %s dep %d→%d violated: cycles %d→%d need distance %d",
					e.Kind, e.From, e.To, from.Cycle, to.Cycle, e.Latency)
			}
			continue
		}
		// Cross-cluster data dependence: the consumer reads the value
		// from the bus broadcast.
		c, ok := s.commFor(e.From)
		if !ok {
			return fmt.Errorf("sched: data dep %d→%d crosses clusters %d→%d without a communication",
				e.From, e.To, from.Cluster, to.Cluster)
		}
		if to.Cycle < c.Cycle+s.Mach.BusLatency {
			return fmt.Errorf("sched: data dep %d→%d: consumer at cycle %d before communicated value arrives at %d",
				e.From, e.To, to.Cycle, c.Cycle+s.Mach.BusLatency)
		}
	}
	return nil
}

func (s *Schedule) validateResources() error {
	m := s.Mach
	// Functional units: count issues per (cycle, cluster, class).
	type slot struct {
		cycle, cluster int
		class          ir.Class
	}
	use := make(map[slot]int)
	for i, p := range s.Place {
		sl := slot{p.Cycle, p.Cluster, s.SB.Instrs[i].Class}
		use[sl]++
		if use[sl] > m.ClusterFU(p.Cluster, sl.class) {
			return fmt.Errorf("sched: cycle %d cluster %d: %d %s instructions exceed %d unit(s)",
				p.Cycle, p.Cluster, use[sl], sl.class, m.ClusterFU(p.Cluster, sl.class))
		}
	}
	// Buses: each comm occupies one bus for BusOccupancy cycles.
	occ := m.BusOccupancy()
	busUse := make(map[int]int)
	for _, c := range s.Comms {
		for t := c.Cycle; t < c.Cycle+occ; t++ {
			busUse[t]++
			if busUse[t] > m.Buses {
				return fmt.Errorf("sched: cycle %d: %d communications exceed %d bus(es)", t, busUse[t], m.Buses)
			}
		}
	}
	return nil
}

func (s *Schedule) validateLive() error {
	sb, m := s.SB, s.Mach
	if len(sb.LiveIns) > 0 && len(s.Pins.LiveIn) != len(sb.LiveIns) {
		return fmt.Errorf("sched: %d live-ins but %d pins", len(sb.LiveIns), len(s.Pins.LiveIn))
	}
	if len(sb.LiveOuts) > 0 && len(s.Pins.LiveOut) != len(sb.LiveOuts) {
		return fmt.Errorf("sched: %d live-outs but %d pins", len(sb.LiveOuts), len(s.Pins.LiveOut))
	}
	for li, home := range s.Pins.LiveIn {
		if home < 0 || home >= m.Clusters {
			return fmt.Errorf("sched: live-in %d pinned to nonexistent cluster %d", li, home)
		}
	}
	for oi, home := range s.Pins.LiveOut {
		if home < 0 || home >= m.Clusters {
			return fmt.Errorf("sched: live-out %d pinned to nonexistent cluster %d", oi, home)
		}
	}
	for li, l := range sb.LiveIns {
		home := s.Pins.LiveIn[li]
		for _, u := range l.Consumers {
			if s.Place[u].Cluster == home {
				continue
			}
			c, ok := s.commFor(-(li + 1))
			if !ok {
				return fmt.Errorf("sched: live-in %d consumed in cluster %d but lives in %d without a communication",
					li, s.Place[u].Cluster, home)
			}
			if s.Place[u].Cycle < c.Cycle+m.BusLatency {
				return fmt.Errorf("sched: live-in %d: consumer %d at cycle %d before communicated value arrives at %d",
					li, u, s.Place[u].Cycle, c.Cycle+m.BusLatency)
			}
		}
	}
	end := s.EndCycle()
	for oi, u := range sb.LiveOuts {
		home := s.Pins.LiveOut[oi]
		if s.Place[u].Cluster == home {
			continue
		}
		c, ok := s.commFor(u)
		if !ok {
			return fmt.Errorf("sched: live-out value of %d produced in cluster %d, needed in %d, no communication",
				u, s.Place[u].Cluster, home)
		}
		if c.Cycle+m.BusLatency > end {
			return fmt.Errorf("sched: live-out value of %d arrives at cycle %d after region end %d",
				u, c.Cycle+m.BusLatency, end)
		}
	}
	return nil
}

// NumComms returns the number of communications in the schedule.
func (s *Schedule) NumComms() int { return len(s.Comms) }

// Format renders the schedule as a cycle × cluster table for humans.
func (s *Schedule) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule of %s on %s: AWCT=%.3f, %d comm(s)\n", s.SB.Name, s.Mach.Name, s.AWCT(), len(s.Comms))
	byCycle := make(map[int][]string)
	maxCycle := 0
	for i, p := range s.Place {
		in := s.SB.Instrs[i]
		txt := fmt.Sprintf("c%d:%s", p.Cluster, in.Name)
		if in.IsExit() {
			txt += fmt.Sprintf("(p=%g)", in.Prob)
		}
		byCycle[p.Cycle] = append(byCycle[p.Cycle], txt)
		if p.Cycle > maxCycle {
			maxCycle = p.Cycle
		}
	}
	for _, c := range s.Comms {
		name := ""
		if li, ok := c.IsLiveIn(); ok {
			name = "livein:" + s.SB.LiveIns[li].Name
		} else {
			name = "val:" + s.SB.Instrs[c.Producer].Name
		}
		byCycle[c.Cycle] = append(byCycle[c.Cycle], "bus:"+name)
		if c.Cycle > maxCycle {
			maxCycle = c.Cycle
		}
	}
	for t := 0; t <= maxCycle; t++ {
		row := byCycle[t]
		sort.Strings(row)
		fmt.Fprintf(&b, "  %3d | %s\n", t, strings.Join(row, "  "))
	}
	return b.String()
}
