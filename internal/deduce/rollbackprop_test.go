package deduce

import (
	"fmt"
	"math/rand"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// randomTrailMutation applies one random decision to the state; any
// contradiction is fine (the caller rolls everything back anyway), and
// contradicted states keep accepting further mutations.
func randomTrailMutation(rng *rand.Rand, st *State) {
	switch rng.Intn(6) {
	case 0:
		node := rng.Intn(st.NumNodes())
		_ = st.FixCycle(node, st.Est(node)+rng.Intn(st.Slack(node)+1))
	case 1:
		node := rng.Intn(st.NumNodes())
		_ = st.TightenEst(node, st.Est(node)+1+rng.Intn(2))
	case 2:
		node := rng.Intn(st.NumNodes())
		_ = st.TightenLst(node, st.Lst(node)-1-rng.Intn(2))
	case 3, 4:
		var open []int
		for i := range st.pairs {
			if st.pairs[i].status == Open && st.combCount(i) > 0 {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			return
		}
		i := open[rng.Intn(len(open))]
		p := st.PairAt(i)
		comb := p.Combs[rng.Intn(len(p.Combs))]
		switch rng.Intn(3) {
		case 0:
			_ = st.DropPair(p.U, p.V)
		case 1:
			_ = st.ChooseComb(p.U, p.V, comb)
		default:
			_ = st.DiscardComb(p.U, p.V, comb)
		}
	case 5:
		if st.NOrig() < 2 {
			return
		}
		a := rng.Intn(st.NOrig())
		b := rng.Intn(st.NOrig() - 1)
		if b >= a {
			b++
		}
		if rng.Intn(2) == 0 {
			_ = st.FuseVC(a, b)
		} else {
			_ = st.SplitVC(a, b)
		}
	}
}

// checkRollbackRoundtrips runs the begin → mutate → rollback property
// on one state: after every rollback the full fingerprint (bounds, pair
// statuses, combination bitsets, components, VCs, arcs, comms, PLCs)
// must be byte-identical to the pre-begin state, and the version-keyed
// caches — the VCG clique memo and the cc-groups CSR — must answer
// exactly like an untouched clone of the pre-begin state, never serving
// entries computed during the rolled-back speculation.
func checkRollbackRoundtrips(t *testing.T, st *State, seed int64, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		before := st.DumpText()
		oracle := st.Clone()

		st.begin()
		for k := 1 + rng.Intn(4); k > 0; k-- {
			randomTrailMutation(rng, st)
		}
		// Query the caches mid-speculation so the memo slots are hot with
		// speculative values when the rollback hits.
		_ = st.vc.CliqueExceeds(st.M.Clusters)
		st.ccGroups()
		st.rollback()

		if got := st.DumpText(); got != before {
			t.Fatalf("round %d: rollback left residue\ngot:\n%s\nwant:\n%s", round, got, before)
		}
		// Clique memo: keyed by the VCG version, so the rolled-back graph
		// must recompute rather than reuse the speculative answer.
		for k := 1; k <= st.M.Clusters+2; k++ {
			if got, want := st.vc.CliqueExceeds(k), oracle.vc.CliqueExceeds(k); got != want {
				t.Fatalf("round %d: CliqueExceeds(%d) = %v after rollback, oracle clone says %v", round, k, got, want)
			}
		}
		// cc-groups CSR: keyed by the union-find version; rebuild both and
		// compare the full membership.
		g, o := st.ccGroups(), oracle.ccGroups()
		if !equalInts(g.roots, o.roots) || !equalInts(g.start, o.start) || !equalInts(g.members, o.members) {
			t.Fatalf("round %d: cc-groups CSR diverged after rollback\ngot roots %v start %v members %v\nwant roots %v start %v members %v",
				round, g.roots, g.start, g.members, o.roots, o.start, o.members)
		}

		// Walk the state forward every few rounds so later rounds start
		// from genuinely different fixpoints.
		if round%3 == 2 {
			randomTrailMutation(rng, st)
			if st.DumpText() == before {
				continue
			}
			// A committed contradiction spends the state; stop here.
			for i := range st.est {
				if st.est[i] > st.lst[i] {
					return
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRollbackRestoresBitsetState is satellite coverage for the flat
// bitset state: random decision bursts under a checkpoint, rolled back,
// on the paper example and on two generated workload blocks. Run under
// -race by `make check` (go test -race ./...).
func TestRollbackRestoresBitsetState(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkRollbackRoundtrips(t, st, 1, 40)

	for _, app := range []string{"099.go", "130.li"} {
		p, err := workload.BenchmarkByName(app)
		if err != nil {
			t.Fatalf("no workload %s: %v", app, err)
		}
		sb := p.Generate(0.05, 0).Blocks[0]
		m := machine.FourCluster1Lat()
		g := sg.Build(sb, m)
		est := sb.EStarts()
		deadlines := make(map[int]int, len(sb.Exits()))
		for _, x := range sb.Exits() {
			deadlines[x] = est[x] + 2
		}
		// No Budget: spend is intentionally not undone by Rollback (it
		// meters total work across speculation), so a metered state's
		// fingerprint would differ on the "budget used" line alone.
		pins := workload.PinsFor(sb, m.Clusters, 1)
		wst, err := NewState(sb, m, g, deadlines, Options{Pins: pins})
		if err != nil {
			if IsContradiction(err) {
				continue
			}
			t.Fatal(err)
		}
		checkRollbackRoundtrips(t, wst, int64(len(app)), 25)
	}
}

// TestRollbackUnderConcurrentStates runs the same roundtrip property on
// two states with private arenas mutating concurrently — the shape of
// two blocks scheduled side by side (vcsched -parallel, the service's
// workers) — so the race detector can see any accidental sharing of
// arena or trail storage across goroutines.
func TestRollbackUnderConcurrentStates(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	g := sg.Build(sb, m)
	done := make(chan error, 2)
	for w := 0; w < 2; w++ {
		w := w
		go func() {
			st, err := NewState(sb, m, g, map[int]int{4: 5, 6: 7}, Options{PinExits: true, Arena: NewArena()})
			if err != nil {
				done <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 30; round++ {
				before := st.DumpText()
				st.begin()
				randomTrailMutation(rng, st)
				randomTrailMutation(rng, st)
				st.rollback()
				if got := st.DumpText(); got != before {
					done <- fmt.Errorf("worker %d round %d: rollback left residue", w, round)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 2; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
