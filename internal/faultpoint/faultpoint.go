// Package faultpoint is a deterministic fault-injection registry for
// exercising the resilient scheduling pipeline (internal/resilient) and
// the panic-recovery paths of the core scheduler without waiting for a
// real bug to strike. Named points are compiled into hot paths of
// deduce, core, the VCG clique bound, CARS and the service; each point
// is a single atomic load when no fault is armed, so the
// instrumentation is free in production.
//
// Faults are armed programmatically (Arm, ArmSpec — tests) or through
// the VCSCHED_FAULTS environment variable (`make faults` CI job):
//
//	VCSCHED_FAULTS='deduce.propagate=contra:0:50,core.stage=panic:3'
//
// The spec grammar is point=kind[:skip[:every[:n]]], comma-separated:
//
//	kind   panic | contra | starve | sleep
//	skip   hits of the point to let pass before the first firing
//	every  after skip, fire on every every-th hit (0 or 1 = every hit)
//	n      kind parameter: step cap for starve, milliseconds for sleep
//
// Firing is a pure function of the point's hit counter, so a serial run
// replays identically; concurrent runs (portfolio workers, bench
// workers) share the counters, which is fine for robustness properties
// ("no fault may sink the batch") that must hold under any interleaving.
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks an error a fault point injected. A call site that
// translates a fault into its domain error wraps the result with
// Injected, so a caller that draws a conclusion from an error (a
// contradiction read as a refutation) can tell a fault from a finding.
var ErrInjected = errors.New("faultpoint: injected fault")

// Injected returns err marked as injected: its text is err's, and
// errors.Is matches both err's chain and ErrInjected.
func Injected(err error) error { return injectedError{err} }

type injectedError struct{ err error }

func (e injectedError) Error() string   { return e.err.Error() }
func (e injectedError) Unwrap() []error { return []error{e.err, ErrInjected} }

// Kind is the failure a fault point injects.
type Kind uint8

const (
	// KindPanic makes Fire panic at the call site, exercising the
	// recover-and-degrade paths.
	KindPanic Kind = iota
	// KindContra asks the call site to return its domain contradiction
	// error (a spurious refutation of a feasible state).
	KindContra
	// KindStarve asks the call site to exhaust (or cap, parameter N) its
	// step budget.
	KindStarve
	// KindSleep asks the call site to sleep N milliseconds, forcing
	// wall-clock deadlines to expire between explicit checks.
	KindSleep
)

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindContra:
		return "contra"
	case KindStarve:
		return "starve"
	case KindSleep:
		return "sleep"
	}
	return "unknown"
}

func kindOf(s string) (Kind, error) {
	switch s {
	case "panic":
		return KindPanic, nil
	case "contra":
		return KindContra, nil
	case "starve":
		return KindStarve, nil
	case "sleep":
		return KindSleep, nil
	}
	return 0, fmt.Errorf("faultpoint: unknown kind %q", s)
}

// Fault describes when and how an armed point fires.
type Fault struct {
	Kind  Kind
	Skip  int // hits to let pass before the first firing
	Every int // after Skip, fire on every Every-th hit (<=1 = every hit)
	N     int // parameter: step cap (starve), milliseconds (sleep)
}

// SleepDuration is the stall a KindSleep fault asks for (N
// milliseconds). Call sites pay it through Sleep, never time.Sleep
// directly, so the sleeper seam covers every sleep point.
func (f Fault) SleepDuration() time.Duration { return time.Duration(f.N) * time.Millisecond }

// SetSleeper replaces the function KindSleep faults sleep through and
// returns the previous one so callers can restore it (nil restores the
// default time.Sleep). Harnesses on simulated time inject their
// clock's Sleep here; everything else never needs to call this.
func SetSleeper(fn func(time.Duration)) (prev func(time.Duration)) {
	if fn == nil {
		fn = time.Sleep
	}
	prev = sleeper.Load().(func(time.Duration))
	sleeper.Store(fn)
	return prev
}

// Sleep pays d through the injected sleeper. Every KindSleep call site
// routes its stall here.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	sleeper.Load().(func(time.Duration))(d)
}

// PanicValue is the value a KindPanic point panics with, so tests and
// recovery paths can tell an injected panic from a real one.
type PanicValue struct{ Point string }

func (p PanicValue) String() string { return "faultpoint: injected panic at " + p.Point }

type entry struct {
	fault Fault
	hits  int
}

var (
	armed atomic.Bool // fast-path gate: any faults registered
	mu    sync.Mutex
	reg   = map[string]*entry{}

	// sleeper pays KindSleep stalls. The default is time.Sleep;
	// harnesses that run on simulated time (internal/loadsim's virtual
	// clock) inject their own so armed sleep windows advance the
	// virtual clock instead of burning real seconds. Stored atomically
	// so call sites racing a SetSleeper never read a torn value.
	sleeper atomic.Value // of func(time.Duration)
)

func init() {
	sleeper.Store(time.Sleep)
	if spec := os.Getenv("VCSCHED_FAULTS"); spec != "" {
		if err := ArmSpec(spec); err != nil {
			// A malformed spec must not silently run the suite fault-free.
			panic(err)
		}
	}
}

// Enabled reports whether any fault is armed. Call sites use it (or
// Fire directly — same cost when disarmed) to keep the disarmed path to
// one atomic load.
func Enabled() bool { return armed.Load() }

// Arm registers (or replaces) the fault at the named point and resets
// its hit counter.
func Arm(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	reg[point] = &entry{fault: f}
	armed.Store(true)
}

// Disarm removes the named point.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(reg, point)
	armed.Store(len(reg) > 0)
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	reg = map[string]*entry{}
	armed.Store(false)
}

// knownPoints lists every fault point compiled into the codebase. The
// VCSCHED_FAULTS spec grammar only accepts these names: a typo'd point
// would otherwise arm nothing and silently run the fault suite
// fault-free. Programmatic Arm stays unrestricted so tests can use
// scratch points.
var knownPoints = map[string]bool{
	"deduce.propagate":   true,
	"deduce.shave":       true,
	"core.stage":         true,
	"core.budget":        true,
	"coloring.maxclique": true,
	"cars.schedule":      true,
	"service.admit":      true,
	"service.worker":     true,
}

// KnownPoints returns the compiled-in fault point names, sorted (for
// diagnostics and the error message on an unknown spec point).
func KnownPoints() []string {
	out := make([]string, 0, len(knownPoints))
	for p := range knownPoints {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ArmSpec parses and arms a comma-separated spec string (see the
// package comment for the grammar). The spec is validated as a whole
// before anything is armed — point names must be compiled-in points,
// the skip/every/n numbers must be non-negative integers, and a point
// may appear at most once per spec — so a rejected spec leaves the
// registry untouched.
func ArmSpec(spec string) error {
	type armed struct {
		point string
		fault Fault
	}
	var parsed []armed
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, rhs, ok := strings.Cut(part, "=")
		if !ok || point == "" {
			return fmt.Errorf("faultpoint: bad spec entry %q (want point=kind[:skip[:every[:n]]])", part)
		}
		if !knownPoints[point] {
			return fmt.Errorf("faultpoint: unknown point %q (known: %s)", point, strings.Join(KnownPoints(), ", "))
		}
		if seen[point] {
			return fmt.Errorf("faultpoint: point %q armed twice in %q", point, spec)
		}
		seen[point] = true
		fields := strings.Split(rhs, ":")
		k, err := kindOf(fields[0])
		if err != nil {
			return err
		}
		f := Fault{Kind: k}
		nums := []*int{&f.Skip, &f.Every, &f.N}
		if len(fields)-1 > len(nums) {
			return fmt.Errorf("faultpoint: too many fields in %q", part)
		}
		for i, s := range fields[1:] {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				return fmt.Errorf("faultpoint: bad number %q in %q (want a non-negative integer)", s, part)
			}
			*nums[i] = v
		}
		parsed = append(parsed, armed{point, f})
	}
	for _, a := range parsed {
		Arm(a.point, a.fault)
	}
	return nil
}

// Points returns the armed point names, sorted (for diagnostics).
func Points() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(reg))
	for p := range reg {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Hits returns how many times the named point has been hit since it was
// armed (fired or not). Zero when the point is not armed.
func Hits(point string) int {
	mu.Lock()
	defer mu.Unlock()
	if e := reg[point]; e != nil {
		return e.hits
	}
	return 0
}

// Fire records a hit of the named point and reports whether a fault
// fires on it. A KindPanic fault panics here (with PanicValue); every
// other kind is returned for the call site to translate into its domain
// failure. Unarmed points cost one atomic load.
func Fire(point string) (Fault, bool) {
	if !armed.Load() {
		return Fault{}, false
	}
	mu.Lock()
	e := reg[point]
	if e == nil {
		mu.Unlock()
		return Fault{}, false
	}
	e.hits++
	n := e.hits
	f := e.fault
	mu.Unlock()
	if n <= f.Skip {
		return Fault{}, false
	}
	if f.Every > 1 && (n-f.Skip-1)%f.Every != 0 {
		return Fault{}, false
	}
	if f.Kind == KindPanic {
		panic(PanicValue{Point: point})
	}
	return f, true
}
