package deduce

import (
	"errors"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
)

// These inputs used to panic ("VCG id space out of sync", "no such
// anchor"); they must now fail softly with ErrInternal so one corrupt
// attempt degrades instead of killing the process.

// liveBlock builds a small block with one live-in and one live-out, so
// the pin tables actually matter.
func liveBlock(t *testing.T) *ir.Superblock {
	t.Helper()
	b := ir.NewBuilder("live-block")
	a := b.Instr("a", ir.Int, 1)
	c := b.Instr("c", ir.Int, 1)
	x := b.Exit("br", 1, 1.0)
	b.Data(a, c).Ctrl(c, x)
	b.LiveIn("v", a)
	b.LiveOut(c)
	return b.MustFinish()
}

func TestBadPinsFailSoftly(t *testing.T) {
	sb := liveBlock(t)
	m := machine.TwoCluster1Lat()
	g := sg.Build(sb, m)
	deadlines := []int{8}

	cases := []struct {
		name string
		pins sched.Pins
	}{
		{"live-in pin out of cluster range", sched.Pins{LiveIn: []int{99}, LiveOut: []int{0}}},
		{"live-out pin negative", sched.Pins{LiveIn: []int{0}, LiveOut: []int{-3}}},
		{"live-in pins missing", sched.Pins{LiveOut: []int{0}}},
		{"live-out pins short", sched.Pins{LiveIn: []int{0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewState panicked: %v", r)
				}
			}()
			_, err := NewState(sb, m, g, deadlines, Options{Pins: tc.pins})
			if err == nil {
				t.Fatal("NewState accepted broken pins")
			}
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("want ErrInternal, got %v", err)
			}
			if IsContradiction(err) {
				t.Fatalf("broken pins misreported as a contradiction: %v", err)
			}
		})
	}
}

func TestVCGDesyncFailsSoftly(t *testing.T) {
	sb := liveBlock(t)
	m := machine.TwoCluster1Lat()
	g := sg.Build(sb, m)
	pins := sched.Pins{LiveIn: []int{0}, LiveOut: []int{0}}
	st, err := NewState(sb, m, g, []int{8}, Options{Pins: pins})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the VCG behind the state's back: the id spaces drift and
	// the next communication node cannot be mirrored.
	st.VC().AddNode()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("addNode panicked on desynced VCG: %v", r)
		}
	}()
	_, err = st.addNode(ir.Copy, m.BusLatency, 0, 100)
	if err == nil {
		t.Fatal("addNode accepted a desynced VCG")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
}

// A value id outside any live range must surface as ErrInternal from
// the VC-node lookup, not a panic or a silent wrong node.
func TestValueVCNodeOutOfRange(t *testing.T) {
	sb := liveBlock(t)
	m := machine.TwoCluster1Lat()
	g := sg.Build(sb, m)
	pins := sched.Pins{LiveIn: []int{0}, LiveOut: []int{0}}
	st, err := NewState(sb, m, g, []int{8}, Options{Pins: pins})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("valueVCNode panicked: %v", r)
		}
	}()
	if _, err := st.valueVCNode(-99); err == nil || !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal for out-of-range live-in encoding, got %v", err)
	}
}
