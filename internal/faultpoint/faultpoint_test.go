package faultpoint

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisarmedFireIsFree(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("fresh registry reports Enabled")
	}
	if _, ok := Fire("anything"); ok {
		t.Fatal("disarmed point fired")
	}
}

func TestSkipAndEvery(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p", Fault{Kind: KindContra, Skip: 2, Every: 3})
	var fired []int
	for i := 1; i <= 12; i++ {
		if _, ok := Fire("p"); ok {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9, 12} // first firing on hit Skip+1, then every 3rd
	if len(fired) != len(want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on hits %v, want %v", fired, want)
		}
	}
	if got := Hits("p"); got != 12 {
		t.Fatalf("Hits = %d, want 12", got)
	}
}

func TestPanicKindPanicsWithPanicValue(t *testing.T) {
	Reset()
	defer Reset()
	Arm("boom", Fault{Kind: KindPanic})
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Point != "boom" {
			t.Fatalf("recovered %v, want PanicValue{boom}", r)
		}
	}()
	Fire("boom")
	t.Fatal("Fire did not panic")
}

func TestArmSpec(t *testing.T) {
	Reset()
	defer Reset()
	if err := ArmSpec("deduce.propagate=contra, core.budget=starve:1:2:500 ,service.worker=sleep:0:0:20"); err != nil {
		t.Fatal(err)
	}
	if got := Points(); len(got) != 3 {
		t.Fatalf("Points = %v, want 3 entries", got)
	}
	f, ok := Fire("service.worker")
	if !ok || f.Kind != KindSleep || f.N != 20 {
		t.Fatalf("service.worker fired %v %v, want sleep n=20", f, ok)
	}
	if _, ok := Fire("core.budget"); ok {
		t.Fatal("core.budget fired on first hit despite skip=1")
	}
	f, ok = Fire("core.budget")
	if !ok || f.Kind != KindStarve || f.N != 500 {
		t.Fatalf("core.budget second hit fired %v %v, want starve n=500", f, ok)
	}
}

// TestArmSpecErrors exercises the spec-grammar error cases: unknown
// points, malformed kinds and numbers, too many fields, and a point
// armed twice in one spec. Every rejected spec must leave the registry
// untouched — nothing partially armed.
func TestArmSpecErrors(t *testing.T) {
	Reset()
	defer Reset()
	bad := []struct {
		spec, wantSub string
	}{
		{"nokind", "bad spec entry"},
		{"=contra", "bad spec entry"},
		{"deduce.shave", "bad spec entry"},
		{"deduce.typo=contra", "unknown point"},
		{"service.workers=panic", "unknown point"},
		// No linked code fires a greedy-coloring point.
		{"coloring.colorable=panic", "unknown point"},
		{"core.stage=frob", "unknown kind"},
		{"core.stage=contra:x", "bad number"},
		{"core.stage=contra:-1", "bad number"},
		{"core.stage=starve:0:0:-5", "bad number"},
		{"core.stage=contra:1:2:3:4", "too many fields"},
		{"core.stage=contra,core.stage=panic", "armed twice"},
		// The first entry is valid; the whole spec must still be
		// rejected atomically because of the second.
		{"deduce.propagate=contra,deduce.nope=panic", "unknown point"},
	}
	for _, tc := range bad {
		err := ArmSpec(tc.spec)
		if err == nil {
			t.Fatalf("ArmSpec(%q) accepted", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ArmSpec(%q) = %v, want mention of %q", tc.spec, err, tc.wantSub)
		}
		if Enabled() || len(Points()) != 0 {
			t.Fatalf("ArmSpec(%q) left points armed: %v", tc.spec, Points())
		}
	}
}

func TestKnownPointsSortedAndComplete(t *testing.T) {
	pts := KnownPoints()
	if !sort.StringsAreSorted(pts) {
		t.Fatalf("KnownPoints not sorted: %v", pts)
	}
	for _, want := range []string{"service.admit", "service.worker", "core.stage", "deduce.propagate"} {
		found := false
		for _, p := range pts {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("KnownPoints missing %q: %v", want, pts)
		}
	}
}

// TestSleepRoutesThroughInjectedSleeper is the regression test for the
// sleeper seam: a KindSleep fault paid through an injected sleeper must
// record the full requested stall without burning real wall time, so
// chaos windows on the loadsim virtual clock stay deterministic and
// `make faults` stops costing real seconds per armed sleep.
func TestSleepRoutesThroughInjectedSleeper(t *testing.T) {
	Reset()
	defer Reset()
	var (
		mu    sync.Mutex
		slept time.Duration
	)
	prev := SetSleeper(func(d time.Duration) {
		mu.Lock()
		slept += d
		mu.Unlock()
	})
	defer SetSleeper(prev)

	Arm("p", Fault{Kind: KindSleep, N: 2000})
	start := time.Now()
	f, ok := Fire("p")
	if !ok || f.Kind != KindSleep {
		t.Fatalf("Fire = %v %v, want armed sleep", f, ok)
	}
	Sleep(f.SleepDuration())
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("injected 2s sleep burned %v of real time", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if slept != 2*time.Second {
		t.Fatalf("sleeper recorded %v, want 2s", slept)
	}
}

// TestSetSleeperRestoresDefault: SetSleeper(nil) must restore
// time.Sleep, and Sleep of a non-positive duration must never invoke
// the sleeper at all.
func TestSetSleeperRestoresDefault(t *testing.T) {
	called := false
	prev := SetSleeper(func(time.Duration) { called = true })
	Sleep(0)
	Sleep(-time.Second)
	if called {
		t.Fatal("non-positive Sleep invoked the sleeper")
	}
	SetSleeper(nil) // back to time.Sleep
	start := time.Now()
	Sleep(time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Fatal("default sleeper did not sleep real time")
	}
	SetSleeper(prev)
}

// TestConcurrentArmFireReset hammers the registry from many goroutines
// under the race detector: arms, fires, disarms, resets, spec arms and
// sleeper swaps racing freely. There is nothing to assert beyond "no
// race, no panic, no deadlock" — the registry's promise under
// concurrency is survival, not a specific interleaving.
func TestConcurrentArmFireReset(t *testing.T) {
	Reset()
	defer Reset()
	defer SetSleeper(nil)
	points := []string{"service.admit", "service.worker", "core.stage", "deduce.propagate"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := points[(g+i)%len(points)]
				switch i % 5 {
				case 0:
					Arm(p, Fault{Kind: KindContra, Skip: i % 3, Every: i % 4})
				case 1:
					if f, ok := Fire(p); ok && f.Kind == KindSleep {
						Sleep(f.SleepDuration())
					}
				case 2:
					Disarm(p)
				case 3:
					if i%40 == 3 {
						Reset()
					} else if err := ArmSpec(p + "=sleep:0:0:1"); err != nil {
						t.Error(err)
					}
				case 4:
					prev := SetSleeper(func(time.Duration) {})
					Hits(p)
					Enabled()
					Points()
					SetSleeper(prev)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDisarm(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p", Fault{Kind: KindContra})
	Disarm("p")
	if Enabled() {
		t.Fatal("Enabled after last point disarmed")
	}
	if _, ok := Fire("p"); ok {
		t.Fatal("disarmed point fired")
	}
}
