package matching

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestMaxWeightDeterministicOnTies: when several matchings share the
// optimal weight, repeated calls on the same input must return the
// identical edge set. The scheduler's stage 3 feeds the matching result
// straight into the deduction, and a block's schedule is the same on
// every run (warm ≡ cold in the service cache, `vcsched -parallel N` ≡
// `-parallel 1`) only if every stage is a pure function of its input.
func TestMaxWeightDeterministicOnTies(t *testing.T) {
	// A 4-cycle with all-equal weights has two optimal perfect matchings.
	cycle := []Edge{
		{U: 0, V: 1, Weight: 5},
		{U: 1, V: 2, Weight: 5},
		{U: 2, V: 3, Weight: 5},
		{U: 3, V: 0, Weight: 5},
	}
	first := maxWeight(4, cycle)
	if Weight(first) != 10 || !IsMatching(first) {
		t.Fatalf("bad matching %v", first)
	}
	for i := 0; i < 50; i++ {
		again := maxWeight(4, cycle)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("call %d returned %v, first call %v", i, again, first)
		}
	}

	// A star of equal weights: every edge alone is optimal; the choice
	// must still be stable.
	star := []Edge{{U: 0, V: 1, Weight: 3}, {U: 0, V: 2, Weight: 3}, {U: 0, V: 3, Weight: 3}}
	first = maxWeight(4, star)
	for i := 0; i < 50; i++ {
		if again := maxWeight(4, star); !reflect.DeepEqual(first, again) {
			t.Fatalf("star: call %d returned %v, first %v", i, again, first)
		}
	}
}

// TestMaxWeightDeterministicRandom: repeated-call identity on random
// graphs across both implementations (exact DP below ExactLimit, greedy
// with 2-opt above).
func TestMaxWeightDeterministicRandom(t *testing.T) {
	// 16 stays comfortably inside the exact-DP range (2^16 subsets);
	// ExactLimit itself costs 2^22 per call and is covered separately by
	// TestExactLimitBoundary with a single repetition.
	for _, n := range []int{8, 16, ExactLimit + 6} {
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 20; trial++ {
			var edges []Edge
			for i := 0; i < n*2; i++ {
				edges = append(edges, Edge{
					U:      rng.Intn(n),
					V:      rng.Intn(n),
					Weight: 1 + rng.Intn(4), // few distinct weights => many ties
				})
			}
			first := maxWeight(n, edges)
			if !IsMatching(first) {
				t.Fatalf("n=%d trial %d: not a matching: %v", n, trial, first)
			}
			for i := 0; i < 10; i++ {
				if again := maxWeight(n, edges); !reflect.DeepEqual(first, again) {
					t.Fatalf("n=%d trial %d: nondeterministic: %v vs %v", n, trial, again, first)
				}
			}
		}
	}
}

// TestExactLimitBoundary: one call at exactly ExactLimit vertices still
// takes the exact-DP path and returns a valid, repeatable matching.
func TestExactLimitBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("2^ExactLimit DP is slow")
	}
	rng := rand.New(rand.NewSource(22))
	var edges []Edge
	for i := 0; i < ExactLimit*2; i++ {
		edges = append(edges, Edge{U: rng.Intn(ExactLimit), V: rng.Intn(ExactLimit), Weight: 1 + rng.Intn(3)})
	}
	first := maxWeight(ExactLimit, edges)
	if !IsMatching(first) {
		t.Fatalf("not a matching: %v", first)
	}
	if again := maxWeight(ExactLimit, edges); !reflect.DeepEqual(first, again) {
		t.Fatalf("nondeterministic at ExactLimit: %v vs %v", again, first)
	}
}

// TestGreedyPathTieHandling: above ExactLimit the greedy+2-opt path must
// still produce a valid matching with a stable result on an all-ties
// input, and never select non-positive weights.
func TestGreedyPathTieHandling(t *testing.T) {
	n := ExactLimit + 4
	var edges []Edge
	for u := 0; u < n-1; u++ {
		edges = append(edges, Edge{U: u, V: u + 1, Weight: 2}) // path graph, all equal
	}
	edges = append(edges, Edge{U: 0, V: n - 1, Weight: 0})  // never selectable
	edges = append(edges, Edge{U: 1, V: n - 1, Weight: -3}) // never selectable
	first := maxWeight(n, edges)
	if !IsMatching(first) {
		t.Fatalf("not a matching: %v", first)
	}
	for _, e := range first {
		if e.Weight <= 0 {
			t.Fatalf("selected non-positive edge %v", e)
		}
	}
	// A path with equal weights admits a matching of floor(n/2) edges.
	if want := (n - 1) / 2 * 2; Weight(first) < want {
		t.Errorf("weight %d below achievable %d", Weight(first), want)
	}
	for i := 0; i < 20; i++ {
		if again := maxWeight(n, edges); !reflect.DeepEqual(first, again) {
			t.Fatalf("greedy path nondeterministic: %v vs %v", again, first)
		}
	}
}
