package deduce

import (
	"testing"
)

// TestProbeRollbackSweep probes every node at both window boundaries of
// the paper's AWCT 9.4 state and requires the full fingerprint to be
// restored after every single probe — including the ones that
// contradict, which are the probes whose propagation reaches deepest
// (comms materialize, VCs fuse, pairs resolve before the failure).
func TestProbeRollbackSweep(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := st.DumpText()
	sawContradiction := false
	for node := 0; node < st.NumNodes(); node++ {
		for _, cycle := range []int{st.Est(node), st.Lst(node)} {
			perr := st.Probe(func(s *State) error { return s.FixCycle(node, cycle) })
			if perr != nil {
				if !IsContradiction(perr) {
					t.Fatalf("probe FixCycle(%d,%d): %v", node, cycle, perr)
				}
				sawContradiction = true
			}
			if got := st.DumpText(); got != want {
				t.Fatalf("probe FixCycle(%d,%d) left residue:\ngot:\n%s\nwant:\n%s", node, cycle, got, want)
			}
			if st.tr != nil {
				t.Fatalf("probe FixCycle(%d,%d) left a checkpoint open", node, cycle)
			}
		}
	}
	if !sawContradiction {
		t.Error("sweep never hit a contradiction; the deep undo paths were not exercised")
	}
}

// TestNestedProbePanics pins the single checkpoint: a probe's function
// may not open a second probe on the same state.
func TestNestedProbePanics(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Probe inside a Probe did not panic")
		}
	}()
	_ = st.Probe(func(s *State) error {
		return s.Probe(func(*State) error { return nil })
	})
}

func TestRollbackWithoutBeginPanics(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("rollback without begin did not panic")
		}
	}()
	st.rollback()
}

func TestCloneDuringTrailPanics(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	st.begin()
	defer st.rollback()
	defer func() {
		if recover() == nil {
			t.Error("Clone during active trail did not panic")
		}
	}()
	st.Clone()
}

// TestDiscardCombClearsBit checks the bitset representation through the
// public decision: a discarded combination's bit goes away, the
// remaining set stays consistent with the pre-discard set minus further
// propagation, and the count matches the materialized slice.
func TestDiscardCombClearsBit(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.pairs {
		p := st.PairAt(i)
		if p.Status != Open || len(p.Combs) < 2 {
			continue
		}
		comb := p.Combs[0]
		if err := st.DiscardComb(p.U, p.V, comb); err != nil && !IsContradiction(err) {
			t.Fatal(err)
		}
		if st.combHas(i, comb) {
			t.Errorf("pair %d still holds discarded combination %d", i, comb)
		}
		after := st.PairAt(i)
		if containsInt(after.Combs, comb) {
			t.Errorf("pair %d materialized combs %v still hold %d", i, after.Combs, comb)
		}
		if got, want := st.combCount(i), len(after.Combs); got != want {
			t.Errorf("pair %d popcount %d but %d materialized combs", i, got, want)
		}
		return
	}
	t.Skip("no open pair with 2+ combinations in the fixture")
}

// TestDiscardAllCombsDropsPair discards every remaining combination of
// one pair and checks the status flips to Dropped with an empty set.
func TestDiscardAllCombsDropsPair(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.pairs {
		p := st.PairAt(i)
		if p.Status != Open {
			continue
		}
		contradicted := false
		for _, c := range p.Combs {
			if err := st.DiscardComb(p.U, p.V, c); err != nil {
				if !IsContradiction(err) {
					t.Fatal(err)
				}
				contradicted = true
				break
			}
		}
		if contradicted {
			return // discarding forced-overlap combinations may legally contradict
		}
		if got := st.pairs[i].status; got != Dropped {
			t.Errorf("pair %d status %d after discarding all combs, want Dropped", i, got)
		}
		if n := st.combCount(i); n != 0 {
			t.Errorf("pair %d still has %d combinations after discarding all", i, n)
		}
		return
	}
	t.Skip("no open pair in the fixture")
}
