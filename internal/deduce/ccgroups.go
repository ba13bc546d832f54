package deduce

import "slices"

// ccGroups is the original-instruction membership of every connected
// component as a CSR: roots ascend, and the members of roots[i] are
// members[start[i]:start[i+1]], ascending. So which component a rule
// visits first is a pure function of the state, never of map iteration
// order. ver is the union-find version the entry describes (0 = none;
// versions start at 1).
type ccGroups struct {
	roots, start, members []int
	ver                   uint64
}

// ccGroups returns the CSR of the current partition. The state keeps
// two entries over arena buffers, keyed by the union-find version, and
// rebuilds only when neither describes the current partition: bound-only
// passes, the overwhelming majority, find the entry they used last, and
// a probe's rollback, which restores the partition the probe opened on,
// finds the entry of that partition, which rebuilds during the
// speculation did not overwrite (keepCCGroups). Versions name contents
// (graphutil.OffsetUF), so an entry whose version matches describes the
// current partition.
func (st *State) ccGroups() *ccGroups {
	v := st.cc.Version()
	if g := &st.ccg[st.ccCur]; g.ver == v {
		return g
	}
	if g := &st.ccg[st.ccCur^1]; g.ver == v {
		st.ccCur ^= 1
		return g
	}
	keep := st.ccCur
	if st.tr != nil {
		keep = st.ccKeep
	}
	st.ccCur = keep ^ 1
	st.buildCCGroups(st.ccCur, v)
	return &st.ccg[st.ccCur]
}

// keepCCGroups runs when a probe opens its checkpoint: the entry
// describing the partition at the checkpoint, if there is one, is kept
// intact until the trail closes.
func (st *State) keepCCGroups() {
	if v := st.cc.Version(); st.ccg[st.ccCur].ver != v && st.ccg[st.ccCur^1].ver == v {
		st.ccCur ^= 1
	}
	st.ccKeep = st.ccCur
}

// buildCCGroups rebuilds entry slot, over that slot's arena buffers,
// for the partition of version v. Roots can be copy nodes (>= nOrig),
// so the scratch tables are sized by the full node count.
func (st *State) buildCCGroups(slot int, v uint64) {
	ar := st.ar
	n := st.cc.Len()
	seen := claim(&ar.ccSeen, n, n)
	clear(seen)
	roots := claim(&ar.ccRoots[slot], 0, st.nOrig)
	for node := 0; node < st.nOrig; node++ {
		root, _ := st.cc.Find(node)
		if !seen[root] {
			seen[root] = true
			roots = append(roots, root)
		}
	}
	slices.Sort(roots)
	r := len(roots)
	pos := claim(&ar.ccSlot, n, n)
	for s, root := range roots {
		pos[root] = int32(s)
	}
	start := claim(&ar.ccStart[slot], r+1, st.nOrig+1)
	clear(start)
	for node := 0; node < st.nOrig; node++ {
		root, _ := st.cc.Find(node)
		start[pos[root]+1]++
	}
	for i := 1; i <= r; i++ {
		start[i] += start[i-1]
	}
	cursor := claim(&ar.ccCursor, r, st.nOrig)
	for i := range cursor {
		cursor[i] = int32(start[i])
	}
	members := claim(&ar.ccMembers[slot], st.nOrig, st.nOrig)
	for node := 0; node < st.nOrig; node++ {
		root, _ := st.cc.Find(node)
		s := pos[root]
		members[cursor[s]] = node
		cursor[s]++
	}
	st.ccg[slot] = ccGroups{roots: roots, start: start, members: members, ver: v}
}
