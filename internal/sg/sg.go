// Package sg builds the scheduling graph (SG) of a superblock: for every
// unordered instruction pair that may overlap in some final schedule, the
// set of feasible combinations. A combination between a pair (u,v) with
// u < v is the signed cycle distance
//
//	comb = Cyc(u) − Cyc(v)
//
// restricted to values at which the two instructions' execution intervals
// [Cyc, Cyc+λ−1] overlap:
//
//	−(λ(u)−1) <= comb <= λ(v)−1.
//
// Pairs with no feasible combination (because a dependence chain forces
// them apart, or there is none left after resource filtering) simply have
// no SG edge. Following the paper, only dependence and resource
// constraints — which hold for every AWCT value — are used here, so one
// SG serves the whole AWCT enumeration; AWCT-dependent pruning happens in
// the deduction process.
package sg

import (
	"fmt"
	"strings"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// Pair is an unordered instruction pair, normalized to U < V.
type Pair struct{ U, V int }

// Edge is one SG edge: the pair plus its feasible combinations in
// increasing order.
type Edge struct {
	Pair
	Combs []int
}

// Graph is the scheduling graph of one superblock on one machine.
type Graph struct {
	SB    *ir.Superblock
	Edges []Edge
}

// Build computes the scheduling graph. Feasibility per combination:
//
//   - Dependences: the longest-path distance d(u,v) forces
//     Cyc(v) − Cyc(u) >= d(u,v), i.e. comb <= −d(u,v); symmetrically
//     d(v,u) forces comb >= d(v,u).
//   - Resources: two instructions of the same class cannot share a cycle
//     (comb = 0) when the machine has a single unit of that class in
//     total — the paper's "a single branch per cycle" example.
func Build(sb *ir.Superblock, m *machine.Config) *Graph {
	g := &Graph{SB: sb}
	dist := sb.LongestDist()
	n := sb.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			combs := combsFor(sb.Instrs[u], sb.Instrs[v], dist[u][v], dist[v][u], m)
			if len(combs) == 0 {
				continue
			}
			g.Edges = append(g.Edges, Edge{Pair: Pair{u, v}, Combs: combs})
		}
	}
	return g
}

func combsFor(iu, iv ir.Instr, distUV, distVU int, m *machine.Config) []int {
	lo, hi := CombRange(iu.Latency, iv.Latency)
	if distUV != ir.NegInf && -distUV < hi {
		hi = -distUV
	}
	if distVU != ir.NegInf && distVU > lo {
		lo = distVU
	}
	if lo > hi {
		return nil
	}
	banZero := iu.Class == iv.Class && m.TotalFU(iu.Class) < 2
	var combs []int
	for c := lo; c <= hi; c++ {
		if c == 0 && banZero {
			continue
		}
		combs = append(combs, c)
	}
	return combs
}

// CombRange returns the overlap-combination interval for a pair with the
// given latencies: comb in [−(latU−1), latV−1].
func CombRange(latU, latV int) (lo, hi int) { return -(latU - 1), latV - 1 }

// NumEdges returns the number of SG edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// CombFeasibleAt reports whether combination c of pair (u,v) can be
// realized inside the given bound windows: there must be a cycle t with
// est(u) <= t <= lst(u) and est(v) <= t−c <= lst(v).
func CombFeasibleAt(c, estU, lstU, estV, lstV int) bool {
	// t ranges over [estU, lstU] ∩ [estV+c, lstV+c].
	lo := estU
	if estV+c > lo {
		lo = estV + c
	}
	hi := lstU
	if lstV+c < hi {
		hi = lstV + c
	}
	return lo <= hi
}

// MustOverlap reports whether the bound windows force the two
// instructions to overlap in every placement: even pushing them as far
// apart as the windows allow, their execution intervals intersect.
func MustOverlap(estU, lstU, latU, estV, lstV, latV int) bool {
	// u as early as possible, v as late as possible: they are disjoint
	// if lst(v) >= est(u) + lat(u), i.e. v can start after u ends.
	if lstV >= estU+latU {
		return false
	}
	// Symmetrically v before u.
	if lstU >= estV+latV {
		return false
	}
	return true
}

// String renders the graph compactly, for debugging and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SG of %s: %d edges\n", g.SB.Name, len(g.Edges))
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  (%s,%s) %v\n", g.SB.Instrs[e.U].Name, g.SB.Instrs[e.V].Name, e.Combs)
	}
	return b.String()
}
