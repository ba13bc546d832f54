package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
)

// Fingerprint returns the content address of a request: a hex SHA-256
// over the canonical superblock serialization, the machine
// configuration, the pin seed and the normalized options vector. Two
// requests with equal fingerprints deserve byte-identical responses,
// so the fingerprint is the cache and singleflight key.
//
// Canonicalization makes the address content-based rather than
// representation-based:
//
//   - the superblock is hashed through the same .sb serialization the
//     rest of the stack round-trips (ir.Superblock.Write), after a
//     Clone+SortEdges so edge declaration order cannot split entries;
//   - the options are hashed after core.Options.Normalized, so an
//     unset knob and its spelled-out default coincide;
//   - Timeout/Deadline are excluded: a correct schedule does not
//     depend on how long the caller was willing to wait, and results
//     whose ladder descent was shaped by the wall clock are never
//     cached (see Service.run);
//   - Parallelism is excluded: the portfolio commit is bit-identical
//     to the serial driver's, so the knob affects wall-clock only;
//   - Pins are excluded in favor of the PinSeed that generates them.
func Fingerprint(req *Request) string {
	h := sha256.New()
	io.WriteString(h, "vcsched-request-v1\n")
	fmt.Fprintf(h, "machine %s\n", machineID(req.Machine))
	fmt.Fprintf(h, "pinseed %d\n", req.PinSeed)
	o := normalizeOptions(req.Core)
	// "learn=on" is a fixed token: it named the default of a removed
	// conflict-learning option, and keeping it keeps every v1 address
	// (cache keys, ring placement, wire fingerprints) byte-identical.
	fmt.Fprintf(h, "opts steps=%d shave=%d cand=%d cyccand=%d awct=%d retries=%d variant=%d nostage3=%t learn=on\n",
		o.MaxSteps, o.ShaveRounds, o.CandidateLimit, o.CycleCandLimit,
		o.MaxAWCTIters, o.Retries, o.VariantOffset, o.NoStage3Matching)
	Canonical(req.SB).Write(h)
	return hex.EncodeToString(h.Sum(nil))
}

// normalizeOptions reduces a core options struct to the vector that
// can change a schedule, with defaults filled in.
func normalizeOptions(o core.Options) core.Options {
	o.Pins = sched.Pins{}
	o.Timeout = 0
	o.Parallelism = 1
	o.Trace = nil
	return o.Normalized()
}

// Canonical returns a copy whose printed form is independent of edge
// declaration order. It is the canonicalization stage of the pipeline:
// the bytes a Canonical superblock Writes are the bytes Fingerprint
// hashes, and the fleet router re-serializes blocks through it so a
// shard receives exactly the bytes the routing fingerprint addressed.
func Canonical(sb *ir.Superblock) *ir.Superblock {
	cp := sb.Clone()
	cp.SortEdges()
	return cp
}

// machineID names a machine deterministically by its full parameter
// dump: cluster/bus shape plus the per-cluster FU tables in cluster
// order, so heterogeneous overrides are covered. The dump deliberately
// ignores Name and the ByKey key — a keyed config whose FU table was
// mutated afterwards must not collide with the pristine one, and two
// identical configs under different names deserve one cache entry.
func machineID(m *machine.Config) string {
	id := fmt.Sprintf("c=%d b=%d lat=%d pipe=%t fu=", m.Clusters, m.Buses, m.BusLatency, m.BusPipelined)
	for c := 0; c < m.Clusters; c++ {
		if c > 0 {
			id += ";"
		}
		for cl := 0; cl < ir.NumClasses; cl++ {
			if cl > 0 {
				id += ","
			}
			id += fmt.Sprint(m.ClusterFU(c, ir.Class(cl)))
		}
	}
	return id
}
