package service

import (
	"fmt"
	"time"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// Request is one block to schedule: the block, the machine, the pin
// seed and the step budget are everything that can change its
// schedule, and all four are hashed into its fingerprint. The service
// derives pins from PinSeed (exactly like cmd/vcsched does) and maps
// Deadline onto the scheduler's wall-clock budget.
type Request struct {
	// SB is the superblock to schedule. The service never mutates it;
	// the fingerprint hashes its canonical text
	// (ir.Superblock.AppendCanonical), which prints the edges in
	// (From, To, Kind) order without copying or re-sorting the block.
	SB *ir.Superblock
	// Machine is the target. Every configuration, keyed
	// (machine.ByKey) or not, fingerprints by its full parameter dump;
	// the name and the key are ignored.
	Machine *machine.Config
	// PinSeed selects the live-in/live-out pin assignment
	// (workload.PinsFor), matching cmd/vcsched -seed.
	PinSeed int64
	// Deadline is the per-request wall-clock budget, covering queue
	// wait and scheduling (0 = the service default, capped at the
	// service maximum). The remaining budget when a worker picks the
	// request up becomes core.Options.Timeout, which core maps onto
	// deduce.Budget.SetDeadline.
	Deadline time.Duration
	// MaxSteps is the search's deduction step budget, as in
	// core.Options.MaxSteps (0 = core.DefaultMaxSteps; < 0 =
	// unlimited).
	MaxSteps int
}

// Validate rejects requests the pipeline cannot serve before they
// consume a queue slot.
func (r *Request) Validate() error {
	if r.SB == nil {
		return fmt.Errorf("service: request has no superblock")
	}
	if r.Machine == nil {
		return fmt.Errorf("service: request has no machine")
	}
	if err := r.SB.Validate(); err != nil {
		return fmt.Errorf("service: invalid superblock %q: %w", r.SB.Name, err)
	}
	if err := r.Machine.Validate(); err != nil {
		return fmt.Errorf("service: invalid machine: %w", err)
	}
	return nil
}
