// Package deduce implements the paper's deduction process (DP): a
// constraint-propagation engine over the scheduling state of one
// superblock for one target AWCT. Decisions (choose/discard a
// combination, fix an instruction to a cycle, fuse or split virtual
// clusters) are applied to the state and their mandatory consequences
// derived by a set of rules until a fixpoint or a contradiction is
// reached.
//
// The state tracks, per node (original instructions plus materialized
// copy instructions):
//
//   - [estart, lstart] cycle bounds,
//   - connected components with fixed relative offsets (chosen
//     combinations), via an offset union-find,
//   - the virtual cluster graph, with one anchor VC per physical cluster
//     (live-in/live-out pins fuse with anchors; the final mapping stage
//     fuses every VC with an anchor),
//   - per-pair remaining combinations,
//   - mandatory communications (one per value, broadcast on a bus) and
//     partially linked communications (PLCs) reserving bus bandwidth for
//     alternatives that are not yet resolved.
//
// The hot structures are flat arrays over a per-request Arena: pairs
// are indexed densely with combination sets as fixed-width bitsets
// (combset.go), pair/communication lookups are dense slices instead of
// maps, and the cc-groups cache is a CSR over arena buffers. See
// DESIGN.md ("Flat state layout").
//
// Propagation is change-driven: every mutation is stamped, and each
// pass revisits only the pairs, classes and rule families whose inputs
// changed (stamps.go; DESIGN.md, "Change-driven propagation").
//
// All rule families are documented in DESIGN.md (U1–U4, D1–D9).
package deduce

import (
	"errors"
	"fmt"
	"time"

	"vcsched/internal/graphutil"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
	"vcsched/internal/vcg"
)

// ErrContradiction is the sentinel wrapped by every contradiction the DP
// detects.
var ErrContradiction = errors.New("deduce: contradiction")

// ErrBudget is returned when the deduction step budget is exhausted; the
// caller should give up on this superblock (and typically fall back to
// the baseline scheduler).
var ErrBudget = errors.New("deduce: step budget exhausted")

// ErrInternal is the sentinel wrapped by invariant violations that
// formerly panicked (an out-of-range anchor, a VCG id space out of
// sync): the state is corrupt and the attempt must be abandoned, but
// the process survives and the caller can degrade to a baseline
// scheduler. It is neither a contradiction nor a budget failure.
var ErrInternal = errors.New("deduce: internal invariant violated")

// contraError is a contradiction the DP derived. Its text is formatted
// only when asked for: most contradictions refute a probe or a studied
// candidate and are dropped unread.
type contraError struct {
	format string
	args   []any
}

func (e *contraError) Error() string {
	return ErrContradiction.Error() + ": " + fmt.Sprintf(e.format, e.args...)
}

func (e *contraError) Unwrap() error { return ErrContradiction }

// contraf returns a contradiction whose text is format applied to args.
// The args are kept, not formatted, so they must be values that do not
// change afterwards.
func contraf(format string, args ...any) error {
	return &contraError{format: format, args: args}
}

func internalf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInternal, fmt.Sprintf(format, args...))
}

// Budget counts deduction work shared across all states cloned from one
// scheduling attempt, bounding worst-case compile time deterministically;
// an optional wall-clock deadline bounds it in real time too.
type Budget struct {
	Steps    int // remaining rule-pass steps; <= 0 disables the limit
	used     int
	limit    bool
	deadline time.Time
	ticks    int
}

// NewBudget creates a budget of n steps (n <= 0 means unlimited).
func NewBudget(n int) *Budget { return &Budget{Steps: n, limit: n > 0} }

// SetDeadline adds a wall-clock bound: spend fails with ErrBudget once
// the deadline passes (checked every few steps to keep it cheap).
func (b *Budget) SetDeadline(t time.Time) { b.deadline = t }

func (b *Budget) spend() error {
	if b == nil {
		return nil
	}
	b.used++
	if b.limit {
		b.Steps--
		if b.Steps < 0 {
			return ErrBudget
		}
	}
	if !b.deadline.IsZero() {
		// Check on the first tick and every 8th after: small
		// propagations (a few steps total) must still notice the
		// deadline.
		if b.ticks++; b.ticks%8 == 1 && time.Now().After(b.deadline) {
			return ErrBudget
		}
	}
	return nil
}

// Exhausted reports whether the budget has run out.
func (b *Budget) Exhausted() bool { return b != nil && b.limit && b.Steps < 0 }

// Used returns the number of deduction steps spent from this budget
// (counted whether or not a step limit is in force).
func (b *Budget) Used() int {
	if b == nil {
		return 0
	}
	return b.used
}

// PairStatus describes the resolution state of a scheduling-graph pair.
type PairStatus uint8

const (
	// Open: some combinations remain and none has been chosen.
	Open PairStatus = iota
	// Chosen: exactly one combination has been selected; the two
	// instructions are in one connected component.
	Chosen
	// Dropped: every combination was discarded; the pair will not
	// overlap in the final schedule.
	Dropped
)

// PairState is the materialized view of one SG pair, as returned by
// Pair/PairAt/Pairs. Internally pairs live as flat records with bitset
// combination sets (combset.go); this snapshot is independent of the
// state and safe to keep across mutations.
type PairState struct {
	sg.Pair
	Combs  []int // remaining (not yet discarded) combinations, ascending
	Status PairStatus
	Comb   int // the chosen combination, valid when Status == Chosen
}

// commRec is a materialized communication: a copy of one value onto the
// bus. Node indexes the state bound arrays.
type commRec struct {
	Node  int
	Value int // producer instruction id, or −(li+1) for live-in li
}

// plcRec is a partially linked communication: a mandatory future
// communication whose value is one of two alternatives (the paper's
// P-PLC). It reserves bus bandwidth until one alternative materializes.
type plcRec struct {
	Consumer int
	Alts     [2]int // producer candidates (instr id or live-in encoding)
}

// arc is a precedence constraint Cyc(To) >= Cyc(From) + Lat between
// state nodes, either a static dependence edge or a dynamically added
// communication leg.
type arc struct {
	From, To, Lat int
}

// State is the full scheduling state the DP operates on.
type State struct {
	SB  *ir.Superblock
	M   *machine.Config
	SGr *sg.Graph

	// Exit deadlines (cycle each exit is pinned to) defining the target
	// AWCT, and the derived region end cycle.
	Deadlines map[int]int
	End       int

	nOrig int
	class []ir.Class
	lat   []int
	est   []int
	lst   []int

	// pairs is the dense pair table; combWords holds idx.combW bitset
	// words per pair (see combset.go). idx carries the immutable
	// pair/consumer lookup tables shared across states of one block.
	pairs     []pairRec
	combWords []uint64
	idx       *sgIndex

	cc *graphutil.OffsetUF
	vc *vcg.Graph

	arcs []arc
	outA [][]int
	inA  [][]int

	comms   []commRec
	commIdx []int32 // value slot (commSlot) → comms index, −1 = none
	plcs    []plcRec

	pins sched.Pins

	budget *Budget

	// tr is the active speculation trail (nil outside a Probe); see
	// trail.go.
	tr *trail

	// ar owns this state's backing buffers and rule scratch; see
	// arena.go for the lifetime contract.
	ar *Arena

	// cc-groups cache: two CSR entries of the connected components,
	// each keyed by the union-find version it describes (ccgroups.go).
	// ccCur is the entry last used; while a trail is open, ccKeep is
	// the entry that described the partition when the probe opened,
	// which rebuilds during the speculation leave alone.
	ccg           [2]ccGroups
	ccCur, ccKeep int

	// stamp and memo make propagation change-driven, and fix marks the
	// state the last clean Propagate left; see stamps.go.
	stamp stamps
	memo  memos
	fix   fixpoint
}

// Options configures state construction.
type Options struct {
	Pins   sched.Pins
	Budget *Budget
	// PinExits fixes each exit exactly to its deadline cycle (the main
	// AWCT enumeration); when false, exits keep the window [estart,
	// deadline] (used by the minAWCT enhancement probes).
	PinExits bool
	// Arena provides reusable backing storage. Nil gives the state a
	// private arena; sharing one across *sequential* states amortizes
	// every allocation (see Arena). States alive at the same time must
	// not share an arena.
	Arena *Arena
}

// NewState builds the initial scheduling state for the given exit
// deadlines (each exit pinned to its deadline cycle) and propagates the
// initial consequences. The returned error is a contradiction if the
// deadlines are infeasible even for the initial rules.
func NewState(sb *ir.Superblock, m *machine.Config, g *sg.Graph, deadlines map[int]int, opts Options) (*State, error) {
	if err := validatePins(sb, m, opts.Pins); err != nil {
		return nil, err
	}
	n := sb.N()
	// Size hints from the superblock and SG: at most one communication
	// is materialized per value (every instruction result plus every
	// live-in), each adding one node, a producer arc and consumer arcs.
	// Claiming the node arrays at full capacity up front means
	// steady-state scheduling does zero growth.
	maxComms := n + len(sb.LiveIns)
	maxNodes := n + maxComms
	ar := opts.Arena
	if ar == nil {
		ar = NewArena()
	}
	idx := ar.index(sb, g)
	ar.saved.owner = nil // the saved state's buffers are about to be reused
	st := &State{
		SB:        sb,
		M:         m,
		SGr:       g,
		Deadlines: deadlines,
		nOrig:     n,
		idx:       idx,
		ar:        ar,
		pins:      opts.Pins,
		budget:    opts.Budget,
	}
	st.class = claim(&ar.class, n, maxNodes)
	st.lat = claim(&ar.lat, n, maxNodes)
	st.est = claim(&ar.est, n, maxNodes)
	st.lst = claim(&ar.lst, n, maxNodes)
	for i, in := range sb.Instrs {
		st.class[i] = in.Class
		st.lat[i] = in.Latency
	}
	last := sb.Exits()[len(sb.Exits())-1]
	st.End = deadlines[last] + sb.Instrs[last].Latency

	copy(st.est, idx.estarts)
	copy(st.lst, sb.LStarts(deadlines))
	for _, x := range sb.Exits() {
		d := deadlines[x]
		if st.est[x] > d {
			return nil, contraf("exit %d estart %d exceeds deadline %d", x, st.est[x], d)
		}
		if opts.PinExits {
			// The AWCT enumeration fixes the exit cycle vector exactly.
			st.est[x] = d
		}
		if st.lst[x] > d {
			st.lst[x] = d
		}
	}
	for i := range st.est {
		if st.est[i] > st.lst[i] {
			return nil, contraf("instruction %d window empty: [%d,%d]", i, st.est[i], st.lst[i])
		}
	}

	arcCap := len(sb.Edges) + 4*maxComms
	st.arcs = claim(&ar.arcs, 0, arcCap)
	st.outA = claimAdj(&ar.outA, n, maxNodes)
	st.inA = claimAdj(&ar.inA, n, maxNodes)
	for _, e := range sb.Edges {
		st.addArc(e.From, e.To, e.Latency)
	}

	np := g.NumEdges()
	st.pairs = claim(&ar.pairs, np, np)
	st.combWords = claim(&ar.combWords, np*idx.combW, np*idx.combW)
	clear(st.combWords)
	for i, e := range g.Edges {
		base := e.Combs[0]
		st.pairs[i] = pairRec{
			u:     int32(e.U),
			v:     int32(e.V),
			base:  int32(base),
			nbits: int32(e.Combs[len(e.Combs)-1] - base + 1),
		}
		for _, c := range e.Combs {
			b := c - base
			st.combWords[i*idx.combW+(b>>6)] |= 1 << uint(b&63)
		}
	}

	st.comms = claim(&ar.comms, 0, maxComms)
	st.commIdx = claim(&ar.commIdx, maxComms, maxComms)
	for i := range st.commIdx {
		st.commIdx[i] = -1
	}
	st.plcs = claim(&ar.plcs, 0, np)

	if ar.cc == nil {
		ar.cc = graphutil.NewOffsetUF(n)
	} else {
		ar.cc.Reset(n)
	}
	st.cc = ar.cc
	if ar.vc == nil {
		ar.vc = vcg.NewWithCap(n, m.Clusters, maxNodes+m.Clusters)
	} else {
		ar.vc.Reset(n, m.Clusters, maxNodes+m.Clusters)
	}
	st.vc = ar.vc

	st.initStamps()
	// Live-in consumers and live-out producers relate to anchors from
	// the start; the rules pick the relations up during propagation.
	if err := st.Propagate(); err != nil {
		return nil, err
	}
	return st, nil
}

// validatePins rejects live-in/live-out pin tables that do not cover the
// block or name nonexistent clusters. Before this check the first
// out-of-range pin panicked deep inside the anchor lookup; now the
// whole construction fails softly with context.
func validatePins(sb *ir.Superblock, m *machine.Config, pins sched.Pins) error {
	if len(sb.LiveIns) > 0 && len(pins.LiveIn) != len(sb.LiveIns) {
		return internalf("%d live-ins but %d pins", len(sb.LiveIns), len(pins.LiveIn))
	}
	if len(sb.LiveOuts) > 0 && len(pins.LiveOut) != len(sb.LiveOuts) {
		return internalf("%d live-outs but %d pins", len(sb.LiveOuts), len(pins.LiveOut))
	}
	for li, k := range pins.LiveIn {
		if k < 0 || k >= m.Clusters {
			return internalf("live-in %d pinned to nonexistent cluster %d of %d", li, k, m.Clusters)
		}
	}
	for oi, k := range pins.LiveOut {
		if k < 0 || k >= m.Clusters {
			return internalf("live-out %d pinned to nonexistent cluster %d of %d", oi, k, m.Clusters)
		}
	}
	return nil
}

// vcID maps a state node to its VCG node (anchors sit between original
// instructions and communication nodes in the VCG id space).
func (st *State) vcID(node int) int {
	if node < st.nOrig {
		return node
	}
	return node + st.M.Clusters
}

// NumNodes returns the number of state nodes (instructions + copies).
func (st *State) NumNodes() int { return len(st.est) }

// NOrig returns the number of original instructions.
func (st *State) NOrig() int { return st.nOrig }

// Est returns the current earliest start of a node.
func (st *State) Est(node int) int { return st.est[node] }

// Lst returns the current latest start of a node.
func (st *State) Lst(node int) int { return st.lst[node] }

// Pinned reports whether the node is fixed to one cycle.
func (st *State) Pinned(node int) bool { return st.est[node] == st.lst[node] }

// Slack returns lst − est of a node.
func (st *State) Slack(node int) int { return st.lst[node] - st.est[node] }

// Class returns a node's instruction class (Copy for communications).
func (st *State) Class(node int) ir.Class { return st.class[node] }

// VC exposes the virtual cluster graph (read-mostly; mutate it only via
// FuseVC/SplitVC so consequences propagate).
func (st *State) VC() *vcg.Graph { return st.vc }

// NumPairs returns the number of SG pairs.
func (st *State) NumPairs() int { return len(st.pairs) }

// PairAt materializes the state of the pair with dense index i.
func (st *State) PairAt(i int) PairState {
	p := &st.pairs[i]
	return PairState{
		Pair:   sg.Pair{U: int(p.u), V: int(p.v)},
		Combs:  st.appendCombs(nil, i),
		Status: p.status,
		Comb:   int(p.comb),
	}
}

// Pair returns the state of pair (a,b), if it is an SG pair.
func (st *State) Pair(a, b int) (PairState, bool) {
	i := st.pairIndex(a, b)
	if i < 0 {
		return PairState{}, false
	}
	return st.PairAt(i), true
}

// Pairs materializes the whole pair table. It allocates one snapshot
// per pair; hot paths use NumPairs/PairAt or the internal accessors.
func (st *State) Pairs() []PairState {
	out := make([]PairState, len(st.pairs))
	for i := range st.pairs {
		out[i] = st.PairAt(i)
	}
	return out
}

// Comms returns the materialized communications as (node, value) pairs.
func (st *State) Comms() [][2]int {
	out := make([][2]int, len(st.comms))
	for i, c := range st.comms {
		out[i] = [2]int{c.Node, c.Value}
	}
	return out
}

// PendingPLCs returns the PLCs not yet covered by a materialized
// communication.
func (st *State) PendingPLCs() int {
	n := 0
	for _, p := range st.plcs {
		if !st.plcCovered(p) {
			n++
		}
	}
	return n
}

func (st *State) plcCovered(p plcRec) bool {
	for _, alt := range p.Alts {
		if st.commFor(alt) >= 0 {
			return true
		}
	}
	return false
}

// addArc inserts a precedence arc, keeping only the tightest latency per
// (from,to). Returns true if the arc is new or tightened. Duplicate
// detection scans from's out-list: it holds at most one entry per
// target by construction, and out-degrees are small.
func (st *State) addArc(from, to, lat int) bool {
	for _, ai := range st.outA[from] {
		if st.arcs[ai].To == to {
			if st.arcs[ai].Lat >= lat {
				return false
			}
			if st.tr != nil {
				st.tr.entries = append(st.tr.entries, trailEntry{kind: tArcLat, a: ai, b: st.arcs[ai].Lat})
			}
			st.arcs[ai].Lat = lat
			st.stamp.arcs = st.tick()
			return true
		}
	}
	st.arcs = append(st.arcs, arc{from, to, lat})
	st.outA[from] = append(st.outA[from], len(st.arcs)-1)
	st.inA[to] = append(st.inA[to], len(st.arcs)-1)
	st.trailMark(tArcAdd)
	st.stamp.arcs = st.tick()
	return true
}

// addNode appends a new state node (for communications). It fails
// softly (formerly a panic) when the VCG id space has drifted from the
// state's — only possible if the VCG was mutated behind the state's
// back — so one corrupt attempt degrades instead of killing the
// process.
func (st *State) addNode(class ir.Class, lat, est, lst int) (int, error) {
	node := len(st.est)
	if v := st.vc.Len(); v != st.vcID(node) {
		return 0, internalf("VCG id space out of sync: %d VCG nodes, next state node %d maps to %d", v, node, st.vcID(node))
	}
	st.class = append(st.class, class)
	st.lat = append(st.lat, lat)
	st.est = append(st.est, est)
	st.lst = append(st.lst, lst)
	st.outA = appendAdj(st.outA)
	st.inA = appendAdj(st.inA)
	st.cc.Add()
	st.vc.AddNode()
	st.trailMark(tNodeAdd)
	st.stamp.node = append(st.stamp.node, 0)
	st.stampNode(node)
	return node, nil
}

// Clone deep-copies the state (sharing the immutable superblock, machine
// and SG). The clone shares the budget, so studying candidates spends
// from the same allowance, but detaches onto a fresh private arena —
// it stays valid however the original's arena is reused. Only the
// differential oracles (internal/difftest) and tests call it: the
// search speculates through Probe. It must not be called inside a
// Probe.
//
// The clone starts with every propagation memo at never and no known
// fixpoint, so its first Propagate is a full sweep: the trail-clone
// differential kind compares exactly that against the change-driven
// passes of the original.
func (st *State) Clone() *State {
	if st.tr != nil {
		panic("deduce: Clone during active trail")
	}
	ar := NewArena()
	ar.idx = st.idx
	ar.clock = st.ar.clock
	cp := &State{
		SB:        st.SB,
		M:         st.M,
		SGr:       st.SGr,
		Deadlines: st.Deadlines,
		End:       st.End,
		nOrig:     st.nOrig,
		class:     append([]ir.Class(nil), st.class...),
		lat:       append([]int(nil), st.lat...),
		est:       append([]int(nil), st.est...),
		lst:       append([]int(nil), st.lst...),
		pairs:     append([]pairRec(nil), st.pairs...),
		combWords: append([]uint64(nil), st.combWords...),
		idx:       st.idx,
		cc:        st.cc.Clone(),
		vc:        st.vc.Clone(),
		arcs:      append([]arc(nil), st.arcs...),
		outA:      make([][]int, len(st.outA)),
		inA:       make([][]int, len(st.inA)),
		comms:     append([]commRec(nil), st.comms...),
		commIdx:   append([]int32(nil), st.commIdx...),
		plcs:      append([]plcRec(nil), st.plcs...),
		pins:      st.pins,
		budget:    st.budget,
		ar:        ar,
		// The groups cache is derived data over arena buffers; the
		// clone starts without entries and rebuilds on first use.
		stamp: st.stamp,
	}
	cp.stamp.node = append([]uint64(nil), st.stamp.node...)
	cp.stamp.pair = append([]uint64(nil), st.stamp.pair...)
	cp.stamp.pairBlk = append([]uint64(nil), st.stamp.pairBlk...)
	for i := range st.outA {
		cp.outA[i] = append([]int(nil), st.outA[i]...)
		cp.inA[i] = append([]int(nil), st.inA[i]...)
	}
	return cp
}

// valueReadyEst returns the earliest cycle the given value (instruction
// id or live-in encoding) is available for copying.
func (st *State) valueReadyEst(value int) int {
	if value < 0 {
		return 0 // live-ins are available on entry
	}
	return st.est[value] + st.lat[value]
}

// valueVCNode returns the VCG node that holds the value: the producing
// instruction, or the anchor of the live-in's pinned cluster. Pins are
// validated in NewState, so the anchor lookup can only fail if the
// state is corrupt; the error (ErrInternal) abandons the attempt.
func (st *State) valueVCNode(value int) (int, error) {
	if value < 0 {
		li := -(value + 1)
		if li >= len(st.pins.LiveIn) {
			return 0, internalf("live-in %d outside pin table of %d", li, len(st.pins.LiveIn))
		}
		return st.vc.Anchor(st.pins.LiveIn[li])
	}
	return value, nil
}

// consumersOf returns the instruction ids consuming the given value.
func (st *State) consumersOf(value int) []int {
	if value < 0 {
		li := -(value + 1)
		return st.SB.LiveIns[li].Consumers
	}
	return st.dataConsumers(value)
}

// dataConsumers is ir.Superblock.DataConsumers read from the shared
// index, without allocating.
func (st *State) dataConsumers(u int) []int {
	return st.idx.dataCons[st.idx.dataStart[u]:st.idx.dataStart[u+1]]
}
