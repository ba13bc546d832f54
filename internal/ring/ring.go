// Package ring is a consistent-hash ring with virtual nodes: the
// placement layer of the sharded scheduling fleet. Each member (a
// vcschedd backend) contributes 128 points on a 64-bit hash circle; a
// key (a request fingerprint) belongs first to the member whose point
// is the first at or clockwise after the key's hash, then to the
// members met further clockwise.
//
// A ring is built once, from the configured members, and never
// changes, so it needs no lock. Liveness is the caller's business:
// Successors lists every member, and a caller that skips the members
// it considers down sends each key exactly where a ring rebuilt from
// the live members alone would. Two properties follow:
//
//   - deterministic placement: the ring is a pure function of its
//     member set, so every router — and the in-process loadsim fleet
//     harness — maps a fingerprint to the same home shard;
//   - minimal movement: skipping a member moves only the keys that
//     member owned (they spill to their next live successor), and
//     taking it back moves only those keys home again. The rest of the
//     fleet's cache partition is untouched, which is what keeps the
//     aggregate hit rate flat through shard loss.
package ring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// replicas is the virtual-node count per member. 128 points keep the
// worst-case ownership skew across a handful of shards within a few
// tens of percent of fair share (see TestDistributionSkew). It is a
// constant because every router must place a key the same way.
const replicas = 128

// point is one virtual node: a position on the hash circle and the
// member that owns it.
type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring. Build it with New.
type Ring struct {
	points []point // sorted by (hash, member); replicas per member
}

// New builds the ring of members. Their order does not matter, and a
// member listed twice counts once.
func New(members []string) *Ring {
	members = slices.Clone(members)
	slices.Sort(members)
	members = slices.Compact(members)
	r := &Ring{}
	for _, m := range members {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: hashKey(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	// Ties (two virtual nodes hashing identically) are broken by member
	// name so the sorted order — and therefore placement — is total.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// hashKey is the ring's placement hash: FNV-1a (stable across
// processes and Go versions, so placement is deterministic fleet-wide)
// pushed through a splitmix64 finalizer — raw FNV of near-identical
// strings ("shard-0#1", "shard-0#2", …) clusters on the circle, and
// clustered virtual nodes are exactly what skews ownership shares.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Successors returns every member once, in ring order from key's home
// shard: the home first, then the shards its keys spill to as members
// ahead of them are skipped. It is the fleet's per-key failover (and
// cross-shard hedging) order; an empty ring returns nil.
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	n := len(r.points) / replicas // distinct members
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(out, p.member) {
			out = append(out, p.member)
		}
	}
	return out
}
