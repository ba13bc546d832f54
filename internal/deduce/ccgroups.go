package deduce

// ccGroups is the original-instruction membership of every connected
// component as a CSR: roots ascend, and the members of roots[i] are
// members[start[i]:start[i+1]], ascending. multi lists, ascending, the
// indexes of the components with two or more members, the only ones the
// component rules read. So which component a rule visits first is a
// pure function of the state, never of map iteration order. ver is the
// union-find version the entry describes (0 = none; versions start
// at 1).
type ccGroups struct {
	roots, start, members []int
	multi                 []int32
	ver                   uint64
}

// ccSlots is the number of cc-groups entries a state keeps: the one a
// probe opened on, the one in use, and one to build the next into.
const ccSlots = 3

// ccStep is one move of the union-find the state made, from version
// from to version to: a merge that left keep the root over gone, or,
// with gone < 0, an added copy node, which leaves the instructions'
// partition as it was. Versions name contents, so a logged step stays
// true of its two versions whatever happens after.
type ccStep struct {
	from, to   uint64
	keep, gone int32
}

// ccLogLen bounds the steps the state remembers (ccLog, a ring).
const ccLogLen = 8

// logCCStep records the union-find move just made from version from:
// the merge of gone into keep, or an added node (keep, gone < 0).
func (st *State) logCCStep(from uint64, keep, gone int) {
	st.ccLog[st.ccLogN%ccLogLen] = ccStep{from: from, to: st.cc.Version(), keep: int32(keep), gone: int32(gone)}
	st.ccLogN++
}

// ccGroups returns the CSR of the current partition. The state keeps
// ccSlots entries over arena buffers, keyed by the union-find version.
// Bound-only passes, the overwhelming majority, find the entry they
// used last, and a probe's rollback, which restores the partition the
// probe opened on, finds the entry of that partition, which entries
// made during the speculation do not overwrite (keepCCGroups). Versions
// name contents (graphutil.OffsetUF), so an entry whose version matches
// describes the current partition. On a miss, the entry is derived from
// a kept one when the logged steps lead from its version to the current
// one (deriveCCGroups), and built from the union-find otherwise.
func (st *State) ccGroups() *ccGroups {
	v := st.cc.Version()
	for i := range st.ccg {
		if st.ccg[i].ver == v {
			st.ccCur = i
			return &st.ccg[i]
		}
	}
	keep := st.ccCur
	if st.tr != nil {
		keep = st.ccKeep
	}
	src, steps := st.ccChain(v)
	dst := st.ccCur
	for k := 1; dst == keep || dst == src; k++ {
		dst = (st.ccCur + k) % ccSlots
	}
	if src < 0 || !st.deriveCCGroups(dst, src, steps, v) {
		st.buildCCGroups(dst, v)
	}
	st.ccCur = dst
	return &st.ccg[dst]
}

// ccChain looks for logged steps that lead from the version of an entry
// to version v. Each step of such a chain was made after the one before
// it, so one walk back through the log, newest first, finds it. It
// returns that entry's slot and the chain's steps, newest first, or −1
// when the log holds no such chain.
func (st *State) ccChain(v uint64) (int, []ccStep) {
	steps := st.ar.ccSteps[:0]
	for k := st.ccLogN - 1; k >= max(0, st.ccLogN-ccLogLen); k-- {
		step := st.ccLog[k%ccLogLen]
		if step.to != v {
			continue
		}
		steps = append(steps, step)
		st.ar.ccSteps = steps
		v = step.from
		for i := range st.ccg {
			if st.ccg[i].ver == v {
				return i, steps
			}
		}
	}
	return -1, nil
}

// keepCCGroups runs when a probe opens its checkpoint: the entry
// describing the partition at the checkpoint, if there is one, is kept
// intact until the trail closes.
func (st *State) keepCCGroups() {
	v := st.cc.Version()
	for i := range st.ccg {
		if st.ccg[i].ver == v {
			st.ccCur = i
			break
		}
	}
	st.ccKeep = st.ccCur
}

// buildCCGroups builds entry slot, over that slot's arena buffers, for
// the partition of version v. Roots can be copy nodes (>= nOrig), so
// the scratch tables are sized by the full node count.
func (st *State) buildCCGroups(slot int, v uint64) {
	ar := st.ar
	n := st.cc.Len()
	seen := claim(&ar.ccSeen, n, n)
	clear(seen)
	for node := 0; node < st.nOrig; node++ {
		seen[st.cc.Root(node)] = true
	}
	pos := claim(&ar.ccSlot, n, n)
	roots := claim(&ar.ccRoots[slot], 0, st.nOrig)
	for root, ok := range seen {
		if ok {
			pos[root] = int32(len(roots))
			roots = append(roots, root)
		}
	}
	r := len(roots)
	start := claim(&ar.ccStart[slot], r+1, st.nOrig+1)
	clear(start)
	for node := 0; node < st.nOrig; node++ {
		start[pos[st.cc.Root(node)]+1]++
	}
	multi := claim(&ar.ccMulti[slot], 0, st.nOrig)
	for i := 1; i <= r; i++ {
		if start[i] >= 2 {
			multi = append(multi, int32(i-1))
		}
		start[i] += start[i-1]
	}
	cursor := claim(&ar.ccCursor, r, st.nOrig)
	for i := range cursor {
		cursor[i] = int32(start[i])
	}
	members := claim(&ar.ccMembers[slot], st.nOrig, st.nOrig)
	for node := 0; node < st.nOrig; node++ {
		s := pos[st.cc.Root(node)]
		members[cursor[s]] = node
		cursor[s]++
	}
	st.ccg[slot] = ccGroups{roots: roots, start: start, members: members, multi: multi, ver: v}
}

// deriveCCGroups fills entry dst for version v from entry src, which
// the logged steps (newest first) turn into v's partition: a copy of
// src, with each merge applied in the order it was made (merge). It
// reports false, leaving dst to be built, should a merge not name two
// roots of the entry.
func (st *State) deriveCCGroups(dst, src int, steps []ccStep, v uint64) bool {
	ar := st.ar
	s := &st.ccg[src]
	g := ccGroups{
		roots:   append(claim(&ar.ccRoots[dst], 0, st.nOrig), s.roots...),
		start:   append(claim(&ar.ccStart[dst], 0, st.nOrig+1), s.start...),
		members: append(claim(&ar.ccMembers[dst], 0, st.nOrig), s.members...),
		multi:   append(claim(&ar.ccMulti[dst], 0, st.nOrig), s.multi...),
	}
	for k := len(steps) - 1; k >= 0; k-- {
		if steps[k].gone >= 0 && !g.merge(int(steps[k].keep), int(steps[k].gone), &ar.ccUnion) {
			return false
		}
	}
	g.ver = v
	st.ccg[dst] = g
	return true
}

// merge joins, in place, the component rooted at gone into the one
// rooted at keep: keep's place holds the union of the two member lists,
// sorted, the components between the two places shift by gone's size,
// and gone's place goes. A merge only ever joins two roots, and a root
// only ever stops being one, so keep and gone are roots of the entry;
// merge reports false if they are not. buf is scratch for the union.
func (g *ccGroups) merge(keep, gone int, buf *[]int) bool {
	i, j := rootIndex(g.roots, keep), rootIndex(g.roots, gone)
	if i < 0 || j < 0 || i == j {
		return false
	}
	start, m := g.start, g.members
	union := mergeSorted((*buf)[:0], m[start[i]:start[i+1]], m[start[j]:start[j+1]])
	*buf = union
	nb := start[j+1] - start[j]
	if i < j {
		copy(m[start[i+1]+nb:], m[start[i+1]:start[j]])
		copy(m[start[i]:], union)
		for k := i + 1; k < j; k++ {
			start[k] += nb
		}
	} else {
		copy(m[start[j]:], m[start[j+1]:start[i]])
		copy(m[start[i+1]-len(union):], union)
		for k := j + 1; k <= i; k++ {
			start[k] -= nb
		}
		i--
	}
	copy(start[j:], start[j+1:])
	g.start = start[:len(start)-1]
	copy(g.roots[j:], g.roots[j+1:])
	g.roots = g.roots[:len(g.roots)-1]
	// gone's index leaves multi and those above it move down; the union,
	// at i, has two or more members.
	n := 0
	for _, x := range g.multi {
		if int(x) != j {
			if int(x) > j {
				x--
			}
			g.multi[n] = x
			n++
		}
	}
	multi := g.multi[:n]
	k := 0
	for k < n && int(multi[k]) < i {
		k++
	}
	if k == n || int(multi[k]) != i {
		multi = append(multi, 0)
		copy(multi[k+1:], multi[k:])
		multi[k] = int32(i)
	}
	g.multi = multi
	return true
}

// rootIndex returns the index of root r in the ascending roots, or −1.
func rootIndex(roots []int, r int) int {
	lo, hi := 0, len(roots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if roots[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(roots) && roots[lo] == r {
		return lo
	}
	return -1
}

// mergeSorted appends the merge of the ascending lists a and b to dst.
func mergeSorted(dst, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}
