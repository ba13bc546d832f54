// Package matching computes maximum-weight matchings on small undirected
// graphs. The paper's stage 3 (outedge elimination) selects virtual
// cluster pairs to fuse via a maximum-weight matching of the matching
// graph (the paper uses LEDA; we implement our own).
//
// Virtual cluster graphs of superblocks are small, so MaxWeight uses an
// exact bitmask dynamic program for graphs of up to ExactLimit vertices
// and falls back to a greedy matching with 2-opt local improvement for
// larger graphs.
package matching

import (
	"errors"
	"sort"
	"time"
)

// ErrDeadline is MaxWeight's error when its deadline passes during the
// exact DP.
var ErrDeadline = errors.New("matching: deadline passed")

// pollEvery is how many subsets the exact DP visits between deadline
// checks. At ExactLimit vertices it visits 2^22 subsets, about 45 ms
// for a sparse graph on a 2-vCPU x86 host: a poll every 0.7 ms there,
// and less often on denser graphs, which spend more per subset.
const pollEvery = 1 << 16

// Edge is an undirected weighted edge.
type Edge struct {
	U, V   int
	Weight int
}

// ExactLimit is the largest vertex count for which MaxWeight is exact.
const ExactLimit = 22

// MaxWeight returns a maximum-weight matching of the graph with n
// vertices: a subset of edges, no two sharing a vertex, maximizing total
// weight. Edges with non-positive weight are never selected. The result
// is exact for n <= ExactLimit and a 2-opt-improved greedy approximation
// beyond. The exact DP returns ErrDeadline once the deadline (zero =
// none) has passed; the result never depends on it otherwise.
func MaxWeight(n int, edges []Edge, deadline time.Time) ([]Edge, error) {
	pos := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.Weight > 0 && e.U != e.V && e.U >= 0 && e.V >= 0 && e.U < n && e.V < n {
			pos = append(pos, e)
		}
	}
	if len(pos) == 0 {
		return nil, nil
	}
	if n <= ExactLimit {
		return exact(n, pos, deadline)
	}
	return greedy(n, pos), nil
}

// Weight sums the weights of a matching.
func Weight(m []Edge) int {
	w := 0
	for _, e := range m {
		w += e.Weight
	}
	return w
}

// IsMatching reports whether no two edges share a vertex.
func IsMatching(m []Edge) bool {
	seen := make(map[int]bool, 2*len(m))
	for _, e := range m {
		if seen[e.U] || seen[e.V] || e.U == e.V {
			return false
		}
		seen[e.U] = true
		seen[e.V] = true
	}
	return true
}

// exact solves maximum-weight matching by DP over vertex subsets:
// best[S] = best matching weight using only vertices in S. O(2^n · deg).
func exact(n int, edges []Edge, deadline time.Time) ([]Edge, error) {
	adj := dedupAdjacency(n, edges)
	size := 1 << n
	best := make([]int32, size)
	choice := make([]int32, size) // edge index chosen for lowest set bit, or −1
	for s := 1; s < size; s++ {
		if s%pollEvery == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrDeadline
		}
		choice[s] = -1
		// Lowest vertex in s either stays unmatched...
		low := lowestBit(s)
		rest := s &^ (1 << low)
		best[s] = best[rest]
		// ...or matches one of its neighbors in s.
		for _, nb := range adj.of(low) {
			if s&(1<<nb.v) == 0 {
				continue
			}
			w := nb.w + best[rest&^(1<<nb.v)]
			if w > best[s] {
				best[s] = w
				choice[s] = nb.edge
			}
		}
	}
	// Reconstruct.
	var out []Edge
	s := size - 1
	for s != 0 {
		if choice[s] < 0 {
			s &^= 1 << lowestBit(s)
			continue
		}
		e := edges[choice[s]]
		out = append(out, e)
		s &^= 1 << e.U
		s &^= 1 << e.V
	}
	return out, nil
}

// neighbor is one entry of a deduplicated adjacency: the other vertex,
// and the index and weight of the heaviest edge joining the two.
type neighbor struct {
	v, edge, w int32
}

// adjacency lists each vertex's neighbors, vertex u's being
// nbrs[start[u]:start[u+1]].
type adjacency struct {
	start []int32
	nbrs  []neighbor
}

func (a adjacency) of(u int) []neighbor { return a.nbrs[a.start[u]:a.start[u+1]] }

// dedupAdjacency builds the adjacency the DP walks: one entry per
// neighbor, in the order the neighbor first appears among the vertex's
// edges, holding the heaviest of the parallel edges (the first of equal
// weights). Parallel edges only repeat a candidate with the same
// weight, which the DP's strict comparison never takes, so the DP
// chooses exactly what it chose walking every edge.
func dedupAdjacency(n int, edges []Edge) adjacency {
	a := adjacency{start: make([]int32, n+1), nbrs: make([]neighbor, 0, 2*len(edges))}
	deg := make([]int32, n+1)
	for _, e := range edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for u := 1; u <= n; u++ {
		deg[u] += deg[u-1]
	}
	// Fill each vertex's slots in edge order, then merge parallel edges
	// into the first entry of their neighbor, compacting in place: the
	// entries kept never run ahead of the entry being read.
	all := a.nbrs[:2*len(edges)]
	fill := deg[:n]
	for i, e := range edges {
		all[fill[e.U]] = neighbor{v: int32(e.V), edge: int32(i), w: int32(e.Weight)}
		fill[e.U]++
		all[fill[e.V]] = neighbor{v: int32(e.U), edge: int32(i), w: int32(e.Weight)}
		fill[e.V]++
	}
	out := 0
	lo := 0
	for u := 0; u < n; u++ {
		hi := int(fill[u])
		first := out
		for _, nb := range all[lo:hi] {
			j := first
			for j < out && a.nbrs[j].v != nb.v {
				j++
			}
			if j == out {
				a.nbrs = a.nbrs[:out+1]
				a.nbrs[out] = nb
				out++
			} else if nb.w > a.nbrs[j].w {
				a.nbrs[j].edge, a.nbrs[j].w = nb.edge, nb.w
			}
		}
		lo = hi
		a.start[u+1] = int32(out)
	}
	return a
}

func lowestBit(s int) int {
	b := 0
	for s&1 == 0 {
		s >>= 1
		b++
	}
	return b
}

// greedy picks edges in decreasing weight order, then tries 2-opt swaps:
// replacing one matched edge with two currently unmatched edges of
// larger total weight.
func greedy(n int, edges []Edge) []Edge {
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })
	matched := make([]bool, n)
	var m []Edge
	take := func(e Edge) {
		m = append(m, e)
		matched[e.U] = true
		matched[e.V] = true
	}
	for _, e := range sorted {
		if !matched[e.U] && !matched[e.V] {
			take(e)
		}
	}
	// 2-opt improvement: for each matched edge (u,v), look for free
	// partners u−a and v−b with weight(ua)+weight(vb) > weight(uv).
	adj := make(map[[2]int]int)
	neighbors := make([][]int, n)
	for _, e := range sorted {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if w, ok := adj[[2]int{u, v}]; !ok || w < e.Weight {
			adj[[2]int{u, v}] = e.Weight
		}
		neighbors[e.U] = append(neighbors[e.U], e.V)
		neighbors[e.V] = append(neighbors[e.V], e.U)
	}
	weight := func(u, v int) (int, bool) {
		if u > v {
			u, v = v, u
		}
		w, ok := adj[[2]int{u, v}]
		return w, ok
	}
	improved := true
	for round := 0; improved && round < 4; round++ {
		improved = false
		for i := 0; i < len(m); i++ {
			e := m[i]
			// Tentatively remove e, then look for two replacement edges
			// (e.U−a) and (e.V−b) touching only free vertices.
			matched[e.U], matched[e.V] = false, false
			bestGain, bestA, bestB := 0, -1, -1
			for _, a := range neighbors[e.U] {
				if matched[a] || a == e.U || a == e.V {
					continue
				}
				wa, ok := weight(e.U, a)
				if !ok {
					continue
				}
				for _, b := range neighbors[e.V] {
					if matched[b] || b == a || b == e.U || b == e.V {
						continue
					}
					wb, ok := weight(e.V, b)
					if !ok {
						continue
					}
					if gain := wa + wb - e.Weight; gain > bestGain {
						bestGain, bestA, bestB = gain, a, b
					}
				}
			}
			if bestGain > 0 {
				wa, _ := weight(e.U, bestA)
				wb, _ := weight(e.V, bestB)
				m[i] = Edge{U: e.U, V: bestA, Weight: wa}
				matched[e.U], matched[bestA] = true, true
				take(Edge{U: e.V, V: bestB, Weight: wb})
				improved = true
			} else {
				matched[e.U], matched[e.V] = true, true
			}
		}
	}
	return m
}
