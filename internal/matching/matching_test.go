package matching

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// maxWeight is MaxWeight without a deadline, which cannot fail.
func maxWeight(n int, edges []Edge) []Edge {
	m, err := MaxWeight(n, edges, time.Time{})
	if err != nil {
		panic(err)
	}
	return m
}

// TestMaxWeightStopsAtDeadline: the exact DP over a 22-vertex graph
// (2^22 subsets) returns ErrDeadline at its first poll once the
// deadline has passed, and the same graph without one still matches.
func TestMaxWeightStopsAtDeadline(t *testing.T) {
	var edges []Edge
	for u := 0; u < ExactLimit; u++ {
		edges = append(edges, Edge{U: u, V: (u + 1) % ExactLimit, Weight: 1 + u%3})
	}
	start := time.Now()
	if m, err := MaxWeight(ExactLimit, edges, start.Add(-time.Millisecond)); !errors.Is(err, ErrDeadline) || m != nil {
		t.Fatalf("passed deadline: got %v, %v; want ErrDeadline", m, err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("passed deadline took %v to notice", el)
	}
	if m, err := MaxWeight(4, edges[:3], start.Add(-time.Millisecond)); err != nil || Weight(m) == 0 {
		t.Fatalf("a DP shorter than one poll interval never reads the deadline: got %v, %v", m, err)
	}
}

// bruteForce finds the true maximum-weight matching by trying all edge
// subsets (only usable for very small edge counts).
func bruteForce(edges []Edge) int {
	best := 0
	var rec func(i int, used map[int]bool, w int)
	rec = func(i int, used map[int]bool, w int) {
		if w > best {
			best = w
		}
		for j := i; j < len(edges); j++ {
			e := edges[j]
			if e.Weight <= 0 || used[e.U] || used[e.V] {
				continue
			}
			used[e.U], used[e.V] = true, true
			rec(j+1, used, w+e.Weight)
			used[e.U], used[e.V] = false, false
		}
	}
	rec(0, map[int]bool{}, 0)
	return best
}

func TestMaxWeightSimple(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  int
	}{
		{"empty", 3, nil, 0},
		{"single", 2, []Edge{{0, 1, 5}}, 5},
		{"triangle", 3, []Edge{{0, 1, 3}, {1, 2, 4}, {0, 2, 5}}, 5},
		{"path picks ends", 4, []Edge{{0, 1, 3}, {1, 2, 5}, {2, 3, 3}}, 6},
		{"negative ignored", 2, []Edge{{0, 1, -4}}, 0},
		{"zero ignored", 2, []Edge{{0, 1, 0}}, 0},
		{"square", 4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 0, 2}}, 4},
		{"star picks best ray", 5, []Edge{{0, 1, 2}, {0, 2, 7}, {0, 3, 4}, {0, 4, 1}}, 7},
		{"self loop ignored", 2, []Edge{{1, 1, 9}, {0, 1, 2}}, 2},
		{"parallel edges keep max", 2, []Edge{{0, 1, 2}, {0, 1, 6}}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := maxWeight(tc.n, tc.edges)
			if !IsMatching(m) {
				t.Fatalf("result is not a matching: %v", m)
			}
			if got := Weight(m); got != tc.want {
				t.Errorf("weight = %d, want %d (matching %v)", got, tc.want, m)
			}
		})
	}
}

func TestMaxWeightExactMatchesBruteForce(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9) // ≤ 10 vertices, well inside ExactLimit
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, Edge{u, v, rng.Intn(15) - 2})
				}
			}
		}
		m := maxWeight(n, edges)
		if !IsMatching(m) {
			return false
		}
		return Weight(m) == bruteForce(edges)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWeightGreedyIsValidAndDecent(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := ExactLimit + 1 + rng.Intn(20) // force the greedy path
		var edges []Edge
		total := 0
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := 1 + rng.Intn(20)
			edges = append(edges, Edge{u, v, w})
			total += w
		}
		m := maxWeight(n, edges)
		if !IsMatching(m) {
			return false
		}
		// Greedy max-weight matching is a 1/2-approximation; just check
		// basic sanity: all chosen weights positive.
		for _, e := range m {
			if e.Weight <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyAtLeastHalfOptimal(t *testing.T) {
	// On small graphs, force the greedy path via internal call and
	// compare to brute force: greedy+2opt must reach ≥ 1/2 of optimal
	// (theory guarantees 1/2 for pure greedy).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(6)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, Edge{u, v, 1 + rng.Intn(10)})
				}
			}
		}
		g := greedy(n, edges)
		if !IsMatching(g) {
			t.Fatalf("greedy produced a non-matching: %v", g)
		}
		opt := bruteForce(edges)
		if 2*Weight(g) < opt {
			t.Errorf("greedy weight %d < half of optimal %d", Weight(g), opt)
		}
	}
}

func TestIsMatching(t *testing.T) {
	if !IsMatching(nil) {
		t.Error("empty set should be a matching")
	}
	if !IsMatching([]Edge{{0, 1, 1}, {2, 3, 1}}) {
		t.Error("disjoint edges rejected")
	}
	if IsMatching([]Edge{{0, 1, 1}, {1, 2, 1}}) {
		t.Error("shared vertex accepted")
	}
	if IsMatching([]Edge{{1, 1, 1}}) {
		t.Error("self loop accepted")
	}
}

func TestEdgeOutOfRangeIgnored(t *testing.T) {
	m := maxWeight(2, []Edge{{0, 5, 10}, {0, 1, 1}})
	if Weight(m) != 1 {
		t.Errorf("out-of-range edge not ignored: %v", m)
	}
}

// exactRef is the exact DP as it read before it walked a deduplicated
// adjacency: every edge of the lowest vertex, with the heaviest of the
// parallel edges (the first of equal weights) looked up in a map. It is
// the reference for exact's choices, edge for edge.
func exactRef(n int, edges []Edge) []Edge {
	adj := make([][]Edge, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], e)
	}
	size := 1 << n
	best := make([]int32, size)
	choice := make([]int32, size)
	edgeIdx := make(map[[2]int]int32, len(edges))
	for i, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if old, ok := edgeIdx[[2]int{u, v}]; !ok || edges[old].Weight < e.Weight {
			edgeIdx[[2]int{u, v}] = int32(i)
		}
	}
	for s := 1; s < size; s++ {
		choice[s] = -1
		low := lowestBit(s)
		rest := s &^ (1 << low)
		best[s] = best[rest]
		for _, e := range adj[low] {
			other := e.U + e.V - low
			if s&(1<<other) == 0 {
				continue
			}
			u, v := low, other
			if u > v {
				u, v = v, u
			}
			ei := edgeIdx[[2]int{u, v}]
			w := int32(edges[ei].Weight) + best[s&^(1<<low)&^(1<<other)]
			if w > best[s] {
				best[s] = w
				choice[s] = ei
			}
		}
	}
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
	return out
}

// TestExactMatchesReference compares exact with exactRef on random
// multigraphs of up to 12 vertices with parallel edges of equal and of
// different weights, in both orientations: the two must return the
// same edges in the same order, not just the same total weight.
func TestExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		var edges []Edge
		for i := rng.Intn(3 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, Edge{u, v, 1 + rng.Intn(6)})
		}
		for i := rng.Intn(len(edges) + 1); i > 0; i-- {
			e := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			if rng.Intn(2) == 0 {
				e.Weight = 1 + rng.Intn(6)
			}
			edges = append(edges, e)
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		got, err := exact(n, edges, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		want := exactRef(n, edges)
		if len(got) != len(want) {
			t.Fatalf("trial %d, n %d, edges %v: exact %v, reference %v", trial, n, edges, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d, n %d, edges %v: exact %v, reference %v", trial, n, edges, got, want)
			}
		}
	}
}
