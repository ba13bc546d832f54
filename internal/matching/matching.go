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
	"math/bits"
	"sort"
	"sync"
	"time"
)

// ErrDeadline is MaxWeight's error when its deadline passes during the
// exact DP.
var ErrDeadline = errors.New("matching: deadline passed")

// pollEvery is how many subsets the exact DP visits between deadline
// checks. The DP visits only the subsets its answer depends on: at
// ExactLimit vertices that is 42 for a ring and 46,367 for the complete
// graph, the densest, which takes about 17 ms on a 2-vCPU x86 host: a
// poll every 0.2 ms there.
const pollEvery = 1 << 9

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
	d := tables.Get().(*dp)
	defer tables.Put(d)
	pos := d.pos[:0]
	for _, e := range edges {
		if e.Weight > 0 && e.U != e.V && e.U >= 0 && e.V >= 0 && e.U < n && e.V < n {
			pos = append(pos, e)
		}
	}
	d.pos = pos
	if len(pos) == 0 {
		return nil, nil
	}
	if n <= ExactLimit {
		return d.exact(n, pos, deadline)
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
// best(S) is the best matching weight using only vertices in S. The
// lowest vertex of S either stays unmatched, leaving best(S minus it),
// or matches a neighbor in S, adding that edge's weight to best(S minus
// both); the first strictly heaviest alternative, in adjacency order,
// wins. The DP runs top-down from the full vertex set, memoized, so it
// visits only the subsets the answer depends on (at most 46,367, for
// the complete graph on ExactLimit vertices), and reconstructs the
// matching by following the winners from the full set. O(visited ·
// deg).
func (d *dp) exact(n int, edges []Edge, deadline time.Time) ([]Edge, error) {
	d.adj = dedupAdjacency(n, edges, d.adj)
	d.memo.reset()
	d.deadline, d.visits, d.late = deadline, 0, false
	d.best(1<<n - 1)
	if d.late {
		return nil, ErrDeadline
	}
	out := make([]Edge, 0, n/2)
	for s := 1<<n - 1; s != 0; {
		if c, _ := d.memo.get(s); c.choice > 0 {
			e := edges[c.choice-1]
			out = append(out, e)
			s &^= 1<<e.U | 1<<e.V
		} else {
			s &= s - 1
		}
	}
	return out, nil
}

// dp is MaxWeight's reusable state: the edges it keeps, and the exact
// DP's adjacency, its memo and its deadline poll.
type dp struct {
	pos      []Edge
	adj      adjacency
	memo     memo
	deadline time.Time
	visits   int
	late     bool
}

// tables recycles MaxWeight's state across calls; concurrent calls take
// different ones.
var tables = sync.Pool{New: func() any { return new(dp) }}

// best returns the best matching weight inside subset s, solving it
// and the subsets it depends on first. Once the deadline has passed
// (polled every pollEvery subsets) it returns at once without solving.
func (d *dp) best(s int) int32 {
	if s == 0 {
		return 0
	}
	if c, ok := d.memo.get(s); ok {
		return c.best
	}
	if d.visits++; d.visits%pollEvery == 0 && !d.deadline.IsZero() && time.Now().After(d.deadline) {
		d.late = true
	}
	if d.late {
		return 0
	}
	low := bits.TrailingZeros(uint(s))
	rest := s &^ (1 << low)
	b, choice := d.best(rest), int32(-1)
	for _, nb := range d.adj.of(low) {
		if s&(1<<nb.v) == 0 {
			continue
		}
		if w := nb.w + d.best(rest&^(1<<nb.v)); w > b {
			b, choice = w, nb.edge+1
		}
	}
	d.memo.put(s, cell{best: b, choice: choice})
	return b
}

// cell is the memo of one solved subset: its best weight, and in choice
// the winning edge's index plus one, or −1 when the lowest vertex stays
// unmatched.
type cell struct {
	best, choice int32
}

// memo maps solved subsets to their cells: an open-addressing table,
// linearly probed, whose slots hold the subset plus one (0 = empty). It
// stays at most half full, so its size follows the subsets a call
// visits rather than the 2^n it could, and filled lists the slots in
// use, so emptying it costs what the last call filled, not the table's
// size.
type memo struct {
	slots  []slot
	filled []int32
}

type slot struct {
	key uint32
	cell
}

// reset empties the memo, keeping its table.
func (m *memo) reset() {
	for _, i := range m.filled {
		m.slots[i] = slot{}
	}
	m.filled = m.filled[:0]
}

// home returns the first slot to probe for subset s.
func (m *memo) home(s int) int {
	return int(uint32(s)*0x9E3779B1) & (len(m.slots) - 1)
}

func (m *memo) get(s int) (cell, bool) {
	if len(m.slots) == 0 {
		return cell{}, false
	}
	for i := m.home(s); ; i = (i + 1) & (len(m.slots) - 1) {
		switch m.slots[i].key {
		case uint32(s) + 1:
			return m.slots[i].cell, true
		case 0:
			return cell{}, false
		}
	}
}

func (m *memo) put(s int, c cell) {
	if 2*(len(m.filled)+1) > len(m.slots) {
		old, filled := m.slots, m.filled
		m.slots, m.filled = make([]slot, max(64, 2*len(old))), filled[:0:0]
		for _, i := range filled {
			m.insert(old[i])
		}
	}
	m.insert(slot{key: uint32(s) + 1, cell: c})
}

func (m *memo) insert(e slot) {
	i := m.home(int(e.key - 1))
	for m.slots[i].key != 0 {
		i = (i + 1) & (len(m.slots) - 1)
	}
	m.slots[i] = e
	m.filled = append(m.filled, int32(i))
}

// neighbor is one entry of a deduplicated adjacency: the other vertex,
// and the index and weight of the heaviest edge joining the two.
type neighbor struct {
	v, edge, w int32
}

// adjacency lists each vertex's neighbors, vertex u's being
// nbrs[start[u]:start[u+1]]; deg is scratch for building it.
type adjacency struct {
	start []int32
	nbrs  []neighbor
	deg   []int32
}

// grow returns buf resized to n, reallocated only when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (a adjacency) of(u int) []neighbor { return a.nbrs[a.start[u]:a.start[u+1]] }

// dedupAdjacency builds the adjacency the DP walks, in buf's storage:
// one entry per neighbor, in the order the neighbor first appears among
// the vertex's edges, holding the heaviest of the parallel edges (the
// first of equal weights). Parallel edges only repeat a candidate with
// the same weight, which the DP's strict comparison never takes, so the
// DP chooses exactly what it chose walking every edge.
func dedupAdjacency(n int, edges []Edge, buf adjacency) adjacency {
	a := adjacency{start: grow(buf.start, n+1), nbrs: grow(buf.nbrs, 2*len(edges))[:0], deg: grow(buf.deg, n+1)}
	a.start[0] = 0
	deg := a.deg
	clear(deg)
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
