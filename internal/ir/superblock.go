package ir

import (
	"fmt"
	"math"
)

// Instr is one instruction of a superblock. Instructions are identified
// by their position in Superblock.Instrs; ID always equals that index.
type Instr struct {
	ID      int
	Name    string  // mnemonic for printing; not semantically meaningful
	Class   Class   // functional-unit class
	Latency int     // cycles until the result (or branch resolution) is available; >= 1
	Prob    float64 // exit probability; > 0 marks the instruction as an exit branch
}

// IsExit reports whether the instruction is an exit branch of its
// superblock.
func (in Instr) IsExit() bool { return in.Prob > 0 }

// DepKind distinguishes data dependences (a register value flows along
// the edge and may require an inter-cluster communication) from control
// dependences (pure ordering).
type DepKind uint8

const (
	// Data marks a register flow dependence: To consumes the value
	// produced by From. If the two end up in different physical
	// clusters, a copy instruction must move the value across a bus.
	Data DepKind = iota
	// Ctrl marks an ordering-only dependence (e.g. an instruction that
	// must not move above its guarding branch). No value flows.
	Ctrl
)

// String returns "data" or "ctrl".
func (k DepKind) String() string {
	if k == Data {
		return "data"
	}
	return "ctrl"
}

// Edge is a dependence From → To with a minimum cycle distance:
// Cyc(To) >= Cyc(From) + Latency in any valid schedule.
type Edge struct {
	From, To int
	Kind     DepKind
	Latency  int // >= 0
}

// LiveIn is a register value live on entry to the superblock. Before
// scheduling, each live-in is assigned to a physical cluster (the paper
// distributes them randomly and gives both schedulers the same
// assignment); consumers placed in other clusters need a communication.
type LiveIn struct {
	Name      string
	Consumers []int // instruction IDs that read the value
}

// Superblock is an immutable single-entry multiple-exit scheduling
// region. Build one with a Builder; the accessors assume the invariants
// Builder establishes (dense IDs, acyclic edges, exit probabilities
// summing to 1).
type Superblock struct {
	Name      string
	Instrs    []Instr
	Edges     []Edge
	ExecCount int64 // profile: how many times the region executes

	// LiveIns are values live on entry; LiveOuts lists producer
	// instruction IDs whose values are live on exit. Both are assigned
	// to clusters before scheduling (see package workload).
	LiveIns  []LiveIn
	LiveOuts []int

	exits []int   // IDs of exit branches, in program order
	succs [][]int // indices into Edges, by From
	preds [][]int // indices into Edges, by To
}

// N returns the number of instructions.
func (sb *Superblock) N() int { return len(sb.Instrs) }

// Exits returns the IDs of the exit branches in program order. The
// returned slice must not be modified.
func (sb *Superblock) Exits() []int { return sb.exits }

// OutEdges returns the indices into sb.Edges of the edges leaving u.
func (sb *Superblock) OutEdges(u int) []int { return sb.succs[u] }

// InEdges returns the indices into sb.Edges of the edges entering u.
func (sb *Superblock) InEdges(u int) []int { return sb.preds[u] }

// DataConsumers returns the IDs of instructions that consume the value
// produced by u (i.e. targets of data edges out of u).
func (sb *Superblock) DataConsumers(u int) []int {
	var out []int
	for _, ei := range sb.succs[u] {
		if sb.Edges[ei].Kind == Data {
			out = append(out, sb.Edges[ei].To)
		}
	}
	return out
}

// NegInf is the distance reported by LongestDist for unordered
// instruction pairs.
const NegInf = math.MinInt32

// LongestDist computes the all-pairs longest-path distance matrix over
// the dependence edges: d[u][v] is the largest sum of edge latencies
// over any path u→v, NegInf if v is not reachable from u, and 0 for
// u == v. The matrix drives both bound computation and scheduling-graph
// construction ("u must precede v by at least d[u][v] cycles").
func (sb *Superblock) LongestDist() [][]int {
	n := sb.N()
	d := make([][]int, n)
	row := make([]int, n*n)
	for i := range d {
		d[i], row = row[:n], row[n:]
		for j := range d[i] {
			d[i][j] = NegInf
		}
		d[i][i] = 0
	}
	order := sb.TopoOrder()
	// Process sources in reverse topological order so that when u is
	// relaxed, every successor's row is final.
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, ei := range sb.succs[u] {
			e := sb.Edges[ei]
			for v := 0; v < n; v++ {
				if d[e.To][v] == NegInf {
					continue
				}
				if nd := e.Latency + d[e.To][v]; nd > d[u][v] {
					d[u][v] = nd
				}
			}
		}
	}
	return d
}

// TopoOrder returns the instruction IDs in a topological order of the
// dependence graph. The builder guarantees acyclicity; for well-formed
// superblocks program order (0..n-1) is already topological, but the
// method recomputes it to stay correct for hand-built graphs.
func (sb *Superblock) TopoOrder() []int {
	n := sb.N()
	indeg := make([]int, n)
	for _, e := range sb.Edges {
		indeg[e.To]++
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, ei := range sb.succs[u] {
			v := sb.Edges[ei].To
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return order
}

// EStarts returns the dependence-only earliest start cycle of every
// instruction (ignoring resource constraints): the longest path from any
// source to the instruction.
func (sb *Superblock) EStarts() []int {
	n := sb.N()
	est := make([]int, n)
	for _, u := range sb.TopoOrder() {
		for _, ei := range sb.succs[u] {
			e := sb.Edges[ei]
			if c := est[u] + e.Latency; c > est[e.To] {
				est[e.To] = c
			}
		}
	}
	return est
}

// LStarts appends to dst the latest start cycle of every instruction,
// given a deadline (latest start cycle) for each exit branch, in the
// order of Exits, and order, the block's TopoOrder (a caller that
// computes the windows of many exit vectors computes it once). An
// instruction constrained by several exits takes the tightest bound.
// Instructions with no path to any exit must still complete before the
// region ends: they are bounded by the final exit's completion,
// deadline(last) + λ(last) − λ(u).
func (sb *Superblock) LStarts(dst, order, deadlines []int) []int {
	if len(deadlines) != len(sb.exits) {
		panic(fmt.Sprintf("ir: LStarts got %d deadlines for %d exits", len(deadlines), len(sb.exits)))
	}
	n := sb.N()
	const inf = math.MaxInt32
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, inf)
	}
	lst := dst[base:]
	for i, x := range sb.exits {
		if d := deadlines[i]; d < lst[x] {
			lst[x] = d
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, ei := range sb.succs[u] {
			e := sb.Edges[ei]
			if lst[e.To] == inf {
				continue
			}
			if c := lst[e.To] - e.Latency; c < lst[u] {
				lst[u] = c
			}
		}
	}
	last := sb.exits[len(sb.exits)-1]
	end := deadlines[len(deadlines)-1] + sb.Instrs[last].Latency
	for i := range lst {
		if lst[i] == inf {
			lst[i] = end - sb.Instrs[i].Latency
		}
	}
	return dst
}

// AWCT computes the average weighted completion time for the given exit
// cycles, in the order of Exits: Σ (cycle + latency) · probability.
func (sb *Superblock) AWCT(exitCycles []int) float64 {
	if len(exitCycles) != len(sb.exits) {
		panic(fmt.Sprintf("ir: AWCT got %d cycles for %d exits", len(exitCycles), len(sb.exits)))
	}
	var a float64
	for i, x := range sb.exits {
		a += float64(exitCycles[i]+sb.Instrs[x].Latency) * sb.Instrs[x].Prob
	}
	return a
}

// CriticalAWCT returns the dependence-only lower bound on the AWCT: the
// value obtained when every exit is scheduled at its earliest start.
func (sb *Superblock) CriticalAWCT() float64 {
	est := sb.EStarts()
	cycles := make([]int, len(sb.exits))
	for i, x := range sb.exits {
		cycles[i] = est[x]
	}
	return sb.AWCT(cycles)
}

// Clone returns a deep copy of the superblock.
func (sb *Superblock) Clone() *Superblock {
	cp := &Superblock{
		Name:      sb.Name,
		Instrs:    append([]Instr(nil), sb.Instrs...),
		Edges:     append([]Edge(nil), sb.Edges...),
		ExecCount: sb.ExecCount,
		LiveOuts:  append([]int(nil), sb.LiveOuts...),
	}
	for _, li := range sb.LiveIns {
		cp.LiveIns = append(cp.LiveIns, LiveIn{Name: li.Name, Consumers: append([]int(nil), li.Consumers...)})
	}
	cp.index()
	return cp
}

// index (re)builds the adjacency and exit caches from Instrs/Edges.
func (sb *Superblock) index() {
	n := len(sb.Instrs)
	sb.succs = make([][]int, n)
	sb.preds = make([][]int, n)
	for i, e := range sb.Edges {
		sb.succs[e.From] = append(sb.succs[e.From], i)
		sb.preds[e.To] = append(sb.preds[e.To], i)
	}
	sb.exits = sb.exits[:0]
	for i, in := range sb.Instrs {
		if in.IsExit() {
			sb.exits = append(sb.exits, i)
		}
	}
}
