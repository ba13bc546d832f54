package ring

import (
	"fmt"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fingerprint-%06d", i)
	}
	return out
}

// Every key maps to exactly one home member, and the mapping is
// deterministic across repeated lookups and across independently
// built rings with the same member set: member order does not matter,
// and a duplicate member counts once.
func TestEveryKeyMapsToExactlyOneLiveMember(t *testing.T) {
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3", "shard-4"}
	r := New(members)
	other := New([]string{"shard-4", "shard-2", "shard-0", "shard-3", "shard-1", "shard-2"})
	for _, k := range keys(10000) {
		succ := r.Successors(k)
		if len(succ) == 0 || !slices.Contains(members, succ[0]) {
			t.Fatalf("Successors(%q) = %v, want a configured member first", k, succ)
		}
		if again := r.Successors(k); !slices.Equal(again, succ) {
			t.Fatalf("Successors(%q) unstable: %v then %v", k, succ, again)
		}
		if indep := other.Successors(k); !slices.Equal(indep, succ) {
			t.Fatalf("Successors(%q) differs across identically-membered rings: %v vs %v", k, succ, indep)
		}
	}
}

// Ownership shares stay within a generous band around fair share —
// the property that makes the ring a cache partitioner rather than a
// hot-spot generator.
func TestDistributionSkew(t *testing.T) {
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r := New(members)
	counts := make(map[string]int, len(members))
	ks := keys(20000)
	for _, k := range ks {
		counts[r.Successors(k)[0]]++
	}
	fair := float64(len(ks)) / float64(len(members))
	for _, m := range members {
		share := float64(counts[m]) / fair
		if share < 0.5 || share > 1.6 {
			t.Errorf("member %s owns %.2fx fair share (%d of %d keys)", m, share, counts[m], len(ks))
		}
	}
}

// Skipping one of N members moves exactly that member's keys (they
// spill to successors) and roughly 1/N of the keyspace — the
// minimal-movement property.
func TestMinimalKeyMovementOnRemove(t *testing.T) {
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3", "shard-4"}
	r := New(members)
	const victim = "shard-2"
	moved := 0
	for _, k := range keys(10000) {
		succ := r.Successors(k)
		before := succ[0]
		after := slices.DeleteFunc(succ, func(m string) bool { return m == victim })[0]
		if after == victim {
			t.Fatalf("key %q still owned by skipped member", k)
		}
		if before != after {
			if before != victim {
				t.Fatalf("key %q moved from surviving member %q to %q — skipping must only move the victim's keys",
					k, before, after)
			}
			moved++
		}
	}
	frac := float64(moved) / 10000
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("skipping moved %.1f%% of keys, want roughly 1/N = 20%%", 100*frac)
	}
}

// Adding a member steals keys only for itself: no key moves between
// two pre-existing members.
func TestMinimalKeyMovementOnAdd(t *testing.T) {
	before := New([]string{"shard-0", "shard-1", "shard-2"})
	after := New([]string{"shard-0", "shard-1", "shard-2", "shard-3"})
	stolen := 0
	for _, k := range keys(10000) {
		was, is := before.Successors(k)[0], after.Successors(k)[0]
		if is != was {
			if is != "shard-3" {
				t.Fatalf("key %q moved from %q to pre-existing member %q on add", k, was, is)
			}
			stolen++
		}
	}
	if stolen == 0 {
		t.Error("new member owns no keys")
	}
}

// Skipping the members that are down sends every key where a ring
// built from the live members alone would: for each non-empty live
// subset of five members, the full ring's successors with the others
// skipped equal the subset ring's successors. A rebuilt ring is the
// placement the fleet had when it removed and re-added members, so
// skipping keeps every key where it was.
func TestSkippingMembersEqualsRebuildingTheRing(t *testing.T) {
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3", "shard-4"}
	full := New(members)
	ks := keys(4000)
	for mask := 1; mask < 1<<len(members); mask++ {
		var live []string
		for i, m := range members {
			if mask&(1<<i) != 0 {
				live = append(live, m)
			}
		}
		sub := New(live)
		for _, k := range ks {
			skipped := slices.DeleteFunc(full.Successors(k), func(m string) bool { return !slices.Contains(live, m) })
			if want := sub.Successors(k); !slices.Equal(skipped, want) {
				t.Fatalf("live %v, key %q: skipping gives %v, rebuilt ring gives %v", live, k, skipped, want)
			}
		}
	}
}

func TestEmptyRing(t *testing.T) {
	if succ := New(nil).Successors("anything"); succ != nil {
		t.Fatalf("Successors on empty ring = %v, want nil", succ)
	}
}

func TestSuccessorsDistinctAndOrdered(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	r := New(members)
	for _, k := range keys(500) {
		succ := r.Successors(k)
		if len(succ) != len(members) {
			t.Fatalf("Successors(%q) = %v, want every member", k, succ)
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("Successors(%q) repeats %q: %v", k, m, succ)
			}
			seen[m] = true
		}
		// The spill target when the home is down is the next successor.
		rest := slices.DeleteFunc(slices.Clone(members), func(m string) bool { return m == succ[0] })
		if spill := New(rest).Successors(k)[0]; spill != succ[1] {
			t.Fatalf("key %q spilled to %q, want ring successor %q", k, spill, succ[1])
		}
	}
}
