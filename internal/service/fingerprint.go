package service

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// Fingerprint returns the content address of a request: a hex SHA-256
// over the canonical superblock serialization, the machine
// configuration, the pin seed and the step budget. Two requests with
// equal fingerprints deserve byte-identical responses, so the
// fingerprint is the cache and singleflight key.
//
// Canonicalization makes the address content-based rather than
// representation-based:
//
//   - the superblock is hashed as ir.Superblock.AppendCanonical prints
//     it: the .sb serialization the rest of the stack round-trips,
//     with the edges in (From, To, Kind) order so edge declaration
//     order cannot split entries;
//   - a step budget of 0 is hashed as core.DefaultMaxSteps, so an
//     unset budget and its spelled-out default coincide;
//   - the Deadline is excluded: a correct schedule does not depend on
//     how long the caller was willing to wait, and results whose
//     ladder descent was shaped by the wall clock are never cached
//     (see Service.run);
//   - the pins are excluded in favor of the PinSeed that generates
//     them.
func Fingerprint(req *Request) string {
	fp, _ := FingerprintText(req)
	return fp
}

// FingerprintText returns the request's fingerprint together with the
// canonical .sb bytes it hashed. The fleet router forwards exactly
// these bytes, so a shard parses and re-addresses the content the
// routing key named. The hashed document is
//
//	vcsched-request-v1
//	machine <machineID>
//	pinseed <n>
//	opts steps=<n> shave=2 cand=3 cyccand=6 awct=64 retries=3 variant=0 nostage3=false learn=on
//	<canonical .sb text>
//
// built in one buffer and hashed once; text aliases its tail.
// Everything after the step budget on the opts line is a frozen v1
// label, not a description of the search: core no longer has the
// options it names, runs no conflict learning and, in the ladder,
// searches under CARS's AWCT, but the label keeps its bytes so every
// v1 address (cache keys, ring placement, wire fingerprints, the
// hollow costs of the SLO suite) stays byte-identical.
func FingerprintText(req *Request) (fp string, text []byte) {
	b := make([]byte, 0, 256+32*len(req.SB.Instrs)+24*len(req.SB.Edges))
	b = append(b, "vcsched-request-v1\nmachine "...)
	b = appendMachineID(b, req.Machine)
	b = append(b, "\npinseed "...)
	b = strconv.AppendInt(b, req.PinSeed, 10)
	steps := req.MaxSteps
	if steps == 0 {
		steps = core.DefaultMaxSteps
	}
	b = append(b, "\nopts steps="...)
	b = strconv.AppendInt(b, int64(steps), 10)
	b = append(b, " shave=2 cand=3 cyccand=6 awct=64 retries=3 variant=0 nostage3=false learn=on\n"...)
	start := len(b)
	b = req.SB.AppendCanonical(b)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b[start:]
}

// appendMachineID names a machine deterministically by its full
// parameter dump: cluster/bus shape plus the per-cluster FU tables in
// cluster order, so heterogeneous overrides are covered. The dump
// deliberately ignores Name and the ByKey key — a keyed config whose FU
// table was mutated afterwards must not collide with the pristine one,
// and two identical configs under different names deserve one cache
// entry.
func appendMachineID(b []byte, m *machine.Config) []byte {
	b = append(b, "c="...)
	b = strconv.AppendInt(b, int64(m.Clusters), 10)
	b = append(b, " b="...)
	b = strconv.AppendInt(b, int64(m.Buses), 10)
	b = append(b, " lat="...)
	b = strconv.AppendInt(b, int64(m.BusLatency), 10)
	b = append(b, " pipe="...)
	b = strconv.AppendBool(b, m.BusPipelined)
	b = append(b, " fu="...)
	for c := 0; c < m.Clusters; c++ {
		if c > 0 {
			b = append(b, ';')
		}
		for cl := 0; cl < ir.NumClasses; cl++ {
			if cl > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(m.ClusterFU(c, ir.Class(cl))), 10)
		}
	}
	return b
}
