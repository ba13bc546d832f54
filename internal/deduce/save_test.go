package deduce

import (
	"math/rand"
	"testing"

	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// checkSaveRestore runs the save → walk forward → restore property on
// one state. After every restore the fingerprint is the saved one, the
// union-find and VCG versions are the saved ones, the clock has not
// gone back, and the version-keyed caches (the clique memo, the
// cc-groups CSR) answer like a clone of the saved state. From there the
// same decisions leave the restored state and a fresh clone of the
// saved one identical, and any new content takes a version above every
// one seen before the restore.
func checkSaveRestore(t *testing.T, st *State, seed int64, rounds int) {
	t.Helper()
	st.Save()
	saved := st.DumpText()
	oracle := st.Clone()
	ccVer, vcVer := st.cc.Version(), st.vc.Version()
	maxCC, maxVC := ccVer, vcVer
	seen := func() {
		maxCC, maxVC = max(maxCC, st.cc.Version()), max(maxVC, st.vc.Version())
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		for k := 1 + rng.Intn(5); k > 0 && !spent(st); k-- {
			randomTrailMutation(rng, st)
			_ = st.vc.CliqueExceeds(st.M.Clusters)
			st.ccGroups()
			seen()
		}
		clock := st.ar.clock
		st.Restore()
		if got := st.DumpText(); got != saved {
			t.Fatalf("round %d: restore left\n%s\nwant\n%s", round, got, saved)
		}
		if st.cc.Version() != ccVer || st.vc.Version() != vcVer {
			t.Fatalf("round %d: versions cc %d vc %d after restore, saved cc %d vc %d", round, st.cc.Version(), st.vc.Version(), ccVer, vcVer)
		}
		if st.ar.clock < clock {
			t.Fatalf("round %d: clock went back from %d to %d", round, clock, st.ar.clock)
		}
		for k := 1; k <= st.M.Clusters+2; k++ {
			if got, want := st.vc.CliqueExceeds(k), oracle.vc.CliqueExceeds(k); got != want {
				t.Fatalf("round %d: CliqueExceeds(%d) = %v after restore, the saved state's clone says %v", round, k, got, want)
			}
		}
		g, o := st.ccGroups(), oracle.ccGroups()
		if !equalInts(g.roots, o.roots) || !equalInts(g.start, o.start) || !equalInts(g.members, o.members) {
			t.Fatalf("round %d: cc-groups CSR diverged after restore", round)
		}

		twin := oracle.Clone()
		step := rng.Int63()
		r1, r2 := rand.New(rand.NewSource(step)), rand.New(rand.NewSource(step))
		for k := 0; k < 3 && !spent(st); k++ {
			before := [2]uint64{st.cc.Version(), st.vc.Version()}
			randomTrailMutation(r1, st)
			randomTrailMutation(r2, twin)
			if v := st.cc.Version(); v != before[0] && v <= maxCC {
				t.Fatalf("round %d: new membership took version %d, already used (max %d)", round, v, maxCC)
			}
			if v := st.vc.Version(); v != before[1] && v <= maxVC {
				t.Fatalf("round %d: new VCG content took version %d, already used (max %d)", round, v, maxVC)
			}
			seen()
		}
		if got, want := st.DumpText(), twin.DumpText(); got != want {
			t.Fatalf("round %d: the restored state and a clone of the saved one diverged\ngot:\n%s\nwant:\n%s", round, got, want)
		}
	}
}

// spent reports whether a committed contradiction emptied a window:
// the random decisions need non-empty ones.
func spent(st *State) bool {
	for i := range st.est {
		if st.est[i] > st.lst[i] {
			return true
		}
	}
	return false
}

// TestSaveRestore runs the property on the paper example and on two
// workload blocks, with no budget (its spend is not restored, so a
// metered state's fingerprint would differ on the budget line alone),
// and checks that a NewState on the arena retires the saved copy.
func TestSaveRestore(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkSaveRestore(t, st, 1, 30)

	for _, app := range []string{"099.go", "130.li"} {
		p, err := workload.BenchmarkByName(app)
		if err != nil {
			t.Fatal(err)
		}
		sb := p.Generate(0.05, 0).Blocks[0]
		m := machine.FourCluster1Lat()
		est := sb.EStarts()
		deadlines := make(map[int]int, len(sb.Exits()))
		for _, x := range sb.Exits() {
			deadlines[x] = est[x] + 2
		}
		ar := NewArena()
		wst, err := NewState(sb, m, sg.Build(sb, m), deadlines, Options{Pins: workload.PinsFor(sb, m.Clusters, 1), PinExits: true, Arena: ar})
		if err != nil {
			t.Fatal(err)
		}
		if err := wst.Shave(2); err != nil {
			t.Fatal(err)
		}
		checkSaveRestore(t, wst, int64(len(app)), 20)

		if _, err := NewState(sb, m, wst.SGr, deadlines, Options{Arena: ar, Pins: wst.pins}); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restore after a NewState on its arena did not panic", app)
				}
			}()
			wst.Restore()
		}()
	}
}
