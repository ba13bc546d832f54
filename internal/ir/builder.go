package ir

import (
	"fmt"
	"math"
	"sort"
)

// Builder incrementally constructs a Superblock and validates the
// superblock invariants when finishing. The zero value is not usable;
// create one with NewBuilder.
type Builder struct {
	sb      Superblock
	exitIDs []int // exits in creation order, for FinishWithProbs
	err     error
}

// NewBuilder starts a superblock with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{sb: Superblock{Name: name, ExecCount: 1}}
}

// SetExecCount records the profile execution count of the region.
func (b *Builder) SetExecCount(n int64) *Builder {
	if n <= 0 {
		b.fail(fmt.Errorf("ir: execution count must be positive, got %d", n))
		return b
	}
	b.sb.ExecCount = n
	return b
}

// Instr appends a non-exit instruction and returns its ID.
func (b *Builder) Instr(name string, class Class, latency int) int {
	return b.add(Instr{Name: name, Class: class, Latency: latency})
}

// Exit appends an exit branch with the given probability of leaving the
// superblock and returns its ID. A zero probability is allowed only when
// the block is finished with FinishWithProbs.
func (b *Builder) Exit(name string, latency int, prob float64) int {
	id := b.add(Instr{Name: name, Class: Branch, Latency: latency, Prob: prob})
	b.exitIDs = append(b.exitIDs, id)
	return id
}

func (b *Builder) add(in Instr) int {
	in.ID = len(b.sb.Instrs)
	if in.Name == "" {
		in.Name = fmt.Sprintf("%s%d", in.Class, in.ID)
	}
	b.sb.Instrs = append(b.sb.Instrs, in)
	return in.ID
}

// LiveIn declares a value live on entry consumed by the given
// instructions.
func (b *Builder) LiveIn(name string, consumers ...int) *Builder {
	b.sb.LiveIns = append(b.sb.LiveIns, LiveIn{Name: name, Consumers: consumers})
	return b
}

// LiveOut declares the value produced by instruction id as live on exit.
func (b *Builder) LiveOut(id int) *Builder {
	b.sb.LiveOuts = append(b.sb.LiveOuts, id)
	return b
}

// Dep adds a dependence edge from → to with an explicit minimum latency.
func (b *Builder) Dep(kind DepKind, from, to, latency int) *Builder {
	b.sb.Edges = append(b.sb.Edges, Edge{From: from, To: to, Kind: kind, Latency: latency})
	return b
}

// Data adds a data dependence whose latency is the producer's latency
// (the common case: the consumer may not start before the value is
// ready).
func (b *Builder) Data(from, to int) *Builder {
	lat := 0
	if from >= 0 && from < len(b.sb.Instrs) {
		lat = b.sb.Instrs[from].Latency
	}
	return b.Dep(Data, from, to, lat)
}

// Ctrl adds a control dependence with latency 1 (the dependent
// instruction issues at least one cycle after the branch).
func (b *Builder) Ctrl(from, to int) *Builder { return b.Dep(Ctrl, from, to, 1) }

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Finish validates the superblock and returns it. The builder must not
// be reused afterwards.
func (b *Builder) Finish() (*Superblock, error) {
	if b.err != nil {
		return nil, b.err
	}
	sb := &b.sb
	// Edge endpoints must be checked before indexing: index() builds
	// adjacency slices keyed by endpoint.
	for _, e := range sb.Edges {
		if e.From < 0 || e.From >= len(sb.Instrs) || e.To < 0 || e.To >= len(sb.Instrs) {
			return nil, fmt.Errorf("ir: superblock %q: edge %d→%d out of range", sb.Name, e.From, e.To)
		}
	}
	sb.index()
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	return sb, nil
}

// MustFinish is Finish for tests and generators that construct known-good
// blocks; it panics on validation failure.
func (b *Builder) MustFinish() *Superblock {
	sb, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return sb
}

// FinishWithProbs assigns the exit probabilities (one per Exit call, in
// creation order) and then finishes. Generators use it to decouple block
// structure from profile data.
func (b *Builder) FinishWithProbs(probs []float64) (*Superblock, error) {
	if len(probs) != len(b.exitIDs) {
		return nil, fmt.Errorf("ir: superblock %q: %d probabilities for %d exits", b.sb.Name, len(probs), len(b.exitIDs))
	}
	for i, id := range b.exitIDs {
		b.sb.Instrs[id].Prob = probs[i]
	}
	return b.Finish()
}

// MustFinishWithProbs panics on validation failure.
func (b *Builder) MustFinishWithProbs(probs []float64) *Superblock {
	sb, err := b.FinishWithProbs(probs)
	if err != nil {
		panic(err)
	}
	return sb
}

// Validate checks the superblock invariants:
//   - at least one instruction and at least one exit;
//   - exits are Branch-class and the last instruction is an exit;
//   - exit probabilities lie in (0,1] and sum to 1 (±1e-6), and none
//     is NaN;
//   - no Copy-class instructions (those are materialized by schedulers);
//   - latencies >= 1, edge latencies >= 0, edge endpoints in range,
//     no self edges, no two edges with the same (From, To, Kind);
//   - the dependence graph is acyclic.
func (sb *Superblock) Validate() error {
	if len(sb.Instrs) == 0 {
		return fmt.Errorf("ir: superblock %q has no instructions", sb.Name)
	}
	if len(sb.exits) == 0 {
		return fmt.Errorf("ir: superblock %q has no exits", sb.Name)
	}
	var psum float64
	for i, in := range sb.Instrs {
		if in.ID != i {
			return fmt.Errorf("ir: superblock %q: instruction %d has ID %d", sb.Name, i, in.ID)
		}
		if !in.Class.Valid() {
			return fmt.Errorf("ir: superblock %q: instruction %d has invalid class", sb.Name, i)
		}
		if in.Class == Copy {
			return fmt.Errorf("ir: superblock %q: instruction %d is a copy; copies are scheduler-internal", sb.Name, i)
		}
		if in.Latency < 1 {
			return fmt.Errorf("ir: superblock %q: instruction %d has latency %d < 1", sb.Name, i, in.Latency)
		}
		// Written so that NaN fails: every comparison with NaN is false.
		if !(in.Prob >= 0 && in.Prob <= 1) {
			return fmt.Errorf("ir: superblock %q: instruction %d has exit probability %g outside [0,1]", sb.Name, i, in.Prob)
		}
		if in.IsExit() && in.Class != Branch {
			return fmt.Errorf("ir: superblock %q: exit %d is not a branch", sb.Name, i)
		}
		psum += in.Prob
	}
	if !sb.Instrs[len(sb.Instrs)-1].IsExit() {
		return fmt.Errorf("ir: superblock %q: last instruction is not an exit", sb.Name)
	}
	if !(math.Abs(psum-1) <= 1e-6) {
		return fmt.Errorf("ir: superblock %q: exit probabilities sum to %g, want 1", sb.Name, psum)
	}
	n := len(sb.Instrs)
	seen := make(map[[3]int]bool, len(sb.Edges))
	for _, e := range sb.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("ir: superblock %q: edge %d→%d out of range", sb.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("ir: superblock %q: self edge on %d", sb.Name, e.From)
		}
		if e.Latency < 0 {
			return fmt.Errorf("ir: superblock %q: edge %d→%d has negative latency", sb.Name, e.From, e.To)
		}
		key := [3]int{e.From, e.To, int(e.Kind)}
		if seen[key] {
			return fmt.Errorf("ir: superblock %q: duplicate %s edge %d→%d", sb.Name, e.Kind, e.From, e.To)
		}
		seen[key] = true
	}
	if len(sb.TopoOrder()) != n {
		return fmt.Errorf("ir: superblock %q: dependence graph has a cycle", sb.Name)
	}
	for li, l := range sb.LiveIns {
		if len(l.Consumers) == 0 {
			return fmt.Errorf("ir: superblock %q: live-in %d has no consumers", sb.Name, li)
		}
		for _, c := range l.Consumers {
			if c < 0 || c >= n {
				return fmt.Errorf("ir: superblock %q: live-in %d consumer %d out of range", sb.Name, li, c)
			}
		}
	}
	for _, u := range sb.LiveOuts {
		if u < 0 || u >= n {
			return fmt.Errorf("ir: superblock %q: live-out %d out of range", sb.Name, u)
		}
	}
	return nil
}

// ExitOrderOK reports whether the exits are totally ordered by
// dependences (each exit must be forced after the previous one), which
// superblock semantics require. Generators use it as a self-check.
func (sb *Superblock) ExitOrderOK() bool {
	d := sb.LongestDist()
	for i := 1; i < len(sb.exits); i++ {
		if d[sb.exits[i-1]][sb.exits[i]] == NegInf {
			return false
		}
	}
	return true
}

// SortEdges orders Edges deterministically (by From, To, Kind) and
// reindexes. Useful after programmatic construction so that printed
// forms are stable.
func (sb *Superblock) SortEdges() {
	sort.Slice(sb.Edges, func(i, j int) bool {
		a, b := sb.Edges[i], sb.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
	sb.index()
}
