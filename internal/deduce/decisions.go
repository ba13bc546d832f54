package deduce

// The methods in this file are the decisions of Section 3: each applies
// one action to the state and immediately runs the deduction process so
// the caller observes all mandatory consequences (or a contradiction).

// ChooseComb selects combination comb for pair (a,b): the two
// instructions join one connected component at that cycle distance.
func (st *State) ChooseComb(a, b, comb int) error {
	i := st.pairIndex(a, b)
	if i < 0 {
		return contraf("no SG pair (%d,%d)", a, b)
	}
	p := &st.pairs[i]
	// Normalize: comb is defined as Cyc(U)−Cyc(V) for U < V.
	if a > b {
		comb = -comb
	}
	switch p.status {
	case Chosen:
		if int(p.comb) != comb {
			return contraf("pair (%d,%d) already chose %d", p.u, p.v, p.comb)
		}
		return nil
	case Dropped:
		return contraf("pair (%d,%d) already dropped", p.u, p.v)
	}
	if !st.combHas(i, comb) {
		return contraf("pair (%d,%d): combination %d already discarded", p.u, p.v, comb)
	}
	if err := st.commitComb(i, comb); err != nil {
		return err
	}
	return st.Propagate()
}

// DiscardComb removes one combination from a pair: a single bit clear
// in the pair's combination set.
func (st *State) DiscardComb(a, b, comb int) error {
	i := st.pairIndex(a, b)
	if i < 0 {
		return contraf("no SG pair (%d,%d)", a, b)
	}
	p := &st.pairs[i]
	if a > b {
		comb = -comb
	}
	if p.status == Chosen {
		if int(p.comb) == comb {
			return contraf("pair (%d,%d): discarding the chosen combination %d", p.u, p.v, comb)
		}
		return nil
	}
	st.combClear(i, comb)
	if p.status != Dropped && st.combCount(i) == 0 {
		st.touchPair(i)
		p.status = Dropped
	}
	return st.Propagate()
}

// DropPair discards every remaining combination of a pair: the two
// instructions will not overlap.
func (st *State) DropPair(a, b int) error {
	i := st.pairIndex(a, b)
	if i < 0 {
		return contraf("no SG pair (%d,%d)", a, b)
	}
	p := &st.pairs[i]
	if p.status == Chosen {
		return contraf("pair (%d,%d): cannot drop, combination %d chosen", p.u, p.v, p.comb)
	}
	st.touchPair(i)
	p.status = Dropped
	st.combClearAll(i)
	return st.Propagate()
}

// FixCycle schedules a node at one specific cycle.
func (st *State) FixCycle(node, cycle int) error {
	if cycle < st.est[node] || cycle > st.lst[node] {
		return contraf("node %d: cycle %d outside window [%d,%d]", node, cycle, st.est[node], st.lst[node])
	}
	st.setEst(node, cycle)
	st.setLst(node, cycle)
	return st.Propagate()
}

// TightenEst raises a node's earliest start (used by shaving when a
// probe at the boundary cycle contradicts).
func (st *State) TightenEst(node, est int) error {
	if est > st.est[node] {
		st.setEst(node, est)
		if st.est[node] > st.lst[node] {
			return contraf("node %d window emptied by estart %d", node, est)
		}
	}
	return st.Propagate()
}

// TightenLst lowers a node's latest start.
func (st *State) TightenLst(node, lst int) error {
	if lst < st.lst[node] {
		st.setLst(node, lst)
		if st.est[node] > st.lst[node] {
			return contraf("node %d window emptied by lstart %d", node, lst)
		}
	}
	return st.Propagate()
}

// FuseVC merges the virtual clusters of two VCG nodes (instruction ids
// for instructions; use VC().Anchor for anchors).
func (st *State) FuseVC(a, b int) error {
	if err := st.vc.Fuse(a, b); err != nil {
		return contraf("%v", err)
	}
	return st.Propagate()
}

// SplitVC marks the virtual clusters of two VCG nodes incompatible.
func (st *State) SplitVC(a, b int) error {
	if err := st.vc.SetIncompatible(a, b); err != nil {
		return contraf("%v", err)
	}
	return st.Propagate()
}

// Shave probes the boundary cycles of unpinned nodes: if pinning a node
// at its earliest (latest) start contradicts, that cycle is impossible
// in every schedule and the bound tightens — a one-level lookahead that
// recovers many of the paper's PLC-style bound deductions. It repeats up
// to rounds times or until no bound moves.
//
// A round after the first stops early. Probes go in key order, 2·node
// for the est side and 2·node+1 for the lst side, and after the
// previous round's last refuted probe that round changed nothing: every
// later probe ran in the state the round ended in and refuted nothing.
// So once a round has passed that key without refuting anything
// itself, it is in that very state, and every probe left would run as
// it ran before: the round, and the shave, are done. This is exact by
// determinism; it saves the probes, not a deduction.
func (st *State) Shave(rounds int) error {
	lastRefuted := -1 // key of the previous round's last refuted probe
	for r := 0; r < rounds; r++ {
		if err := injectFault("deduce.shave"); err != nil {
			return err
		}
		refuted := -1 // key of this round's last refuted probe
		// settled reports whether the probe with key k, and every later
		// one, already ran in the current state.
		settled := func(k int) bool { return r > 0 && refuted < 0 && k > lastRefuted }
		for node := 0; node < len(st.est); node++ {
			if st.Pinned(node) {
				continue
			}
			if settled(2 * node) {
				return nil
			}
			e := st.est[node]
			contra, err := st.boundaryProbe(node, e)
			if err != nil {
				return err
			}
			if contra {
				if err := st.TightenEst(node, e+1); err != nil {
					return err
				}
				refuted = 2 * node
			}
			// A width-1 window needs no second probe: est == lst would
			// make it the same FixCycle as the est probe just issued.
			if st.Pinned(node) || st.lst[node] == e {
				continue
			}
			if settled(2*node + 1) {
				return nil
			}
			l := st.lst[node]
			contra, err = st.boundaryProbe(node, l)
			if err != nil {
				return err
			}
			if contra {
				if err := st.TightenLst(node, l-1); err != nil {
					return err
				}
				refuted = 2*node + 1
			}
		}
		if refuted < 0 {
			return nil
		}
		lastRefuted = refuted
	}
	return nil
}

// boundaryProbe reports whether pinning node at cycle contradicts, as
// one of Shave's probes. Non-contradiction errors (budget, internal)
// abort the shave.
func (st *State) boundaryProbe(node, cycle int) (bool, error) {
	err := st.Probe(func(s *State) error { return s.FixCycle(node, cycle) })
	if err != nil && (err == ErrBudget || !isContradiction(err)) {
		return false, err
	}
	return err != nil, nil
}
