package service

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

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
//   - the superblock is hashed as ir.Superblock.AppendCanonical prints
//     it: the .sb serialization the rest of the stack round-trips,
//     with the edges in (From, To, Kind) order so edge declaration
//     order cannot split entries;
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
//	opts steps=… shave=… cand=… cyccand=… awct=… retries=… variant=0 nostage3=… learn=on
//	<canonical .sb text>
//
// built in one buffer and hashed once; text aliases its tail.
func FingerprintText(req *Request) (fp string, text []byte) {
	b := make([]byte, 0, 256+32*len(req.SB.Instrs)+24*len(req.SB.Edges))
	b = append(b, "vcsched-request-v1\nmachine "...)
	b = appendMachineID(b, req.Machine)
	b = append(b, "\npinseed "...)
	b = strconv.AppendInt(b, req.PinSeed, 10)
	o := normalizeOptions(req.Core)
	// "variant=0" and "learn=on" are fixed tokens: they named the
	// defaults of a removed variant-offset option and a removed
	// conflict-learning option, and keeping them keeps every v1 address
	// (cache keys, ring placement, wire fingerprints) byte-identical.
	b = append(b, "\nopts steps="...)
	b = strconv.AppendInt(b, int64(o.MaxSteps), 10)
	b = append(b, " shave="...)
	b = strconv.AppendInt(b, int64(o.ShaveRounds), 10)
	b = append(b, " cand="...)
	b = strconv.AppendInt(b, int64(o.CandidateLimit), 10)
	b = append(b, " cyccand="...)
	b = strconv.AppendInt(b, int64(o.CycleCandLimit), 10)
	b = append(b, " awct="...)
	b = strconv.AppendInt(b, int64(o.MaxAWCTIters), 10)
	b = append(b, " retries="...)
	b = strconv.AppendInt(b, int64(o.Retries), 10)
	b = append(b, " variant=0 nostage3="...)
	b = strconv.AppendBool(b, o.NoStage3Matching)
	b = append(b, " learn=on\n"...)
	start := len(b)
	b = req.SB.AppendCanonical(b)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b[start:]
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
