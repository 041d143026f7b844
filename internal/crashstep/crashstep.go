// Package crashstep runs one crash scenario at every step of an
// operation: for each step n it builds a fresh system, arms a crash at
// the n-th pool access the operation makes, lets the operation unwind,
// drops what the pools had not flushed, runs the layer's own recovery
// and checks what is left. It sees only the system's pools and the
// scenario's callbacks, which share the system through the variables
// they close over. Only tests import it.
package crashstep

import (
	"fmt"
	"testing"

	"upskiplist/internal/pmem"
)

// Scenario is one every-step crash test.
type Scenario struct {
	// The steps: each of At, run as a subtest named stepN; or, with At
	// empty, From, From+Stride (default 1), ... until Op finishes before
	// its step comes; or, with neither, step 0: Op runs to its end and
	// the crash follows.
	At           []int64
	From, Stride int64
	// Floor is the fewest steps a sweep's Op may finish in: a shorter Op
	// cannot have reached what the scenario means to crash.
	Floor int64

	// Setup builds a fresh, quiesced system and returns the pools to
	// track, arm and crash.
	Setup func(t *testing.T) []*pmem.Pool
	// Arm installs the crash where the pools are not yet built, such as
	// in a loader's config. By default it goes on every pool of Setup.
	Arm func(inj pmem.Injector)
	Op  func(t *testing.T)
	// Hook, when set, runs at the step in place of a crash: another
	// thread scheduled between two of Op's accesses. Nothing is tracked
	// or crashed then.
	Hook func()
	// Evict is the chance that an unflushed line survives the crash,
	// drawn per pool from Seed; 0 loses every one.
	Evict float64
	Seed  uint64
	// Recover runs the layer's own recovery over the crashed pools, and
	// Check checks what it left; either may be nil.
	Recover func(t *testing.T)
	Check   func(t *testing.T, p Point)

	// Twin builds a system that never crashes. Run recovers it and reads
	// its Census once; after every Check the crashed system's Census
	// must equal it.
	Twin   func(t *testing.T)
	Census func(t *testing.T) any // a comparable value
}

// Point is where one run of Op was stopped.
type Point struct {
	Step  int64 // the armed pool access; 0 for none
	Fired bool  // the crash or hook happened; false: Op finished first
}

// Range is the steps from, from+stride, ... up to to.
func Range(from, to, stride int64) []int64 {
	var at []int64
	for n := from; n <= to; n += stride {
		at = append(at, n)
	}
	return at
}

// Run runs sc at each of its steps. For a sweep it returns the step at
// which Op finished without the crash firing.
func Run(t *testing.T, sc Scenario) int64 {
	t.Helper()
	var want any
	if sc.Twin != nil {
		sc.Twin(t)
		sc.recovered(t)
		want = sc.Census(t)
	}
	for _, n := range sc.At {
		if !t.Run(fmt.Sprintf("step%d", n), func(t *testing.T) { sc.step(t, n, want) }) {
			t.FailNow()
		}
	}
	if sc.At != nil {
		return 0
	}
	for n := sc.From; ; n += max(sc.Stride, 1) {
		if !sc.step(t, n, want) {
			if n < sc.Floor {
				t.Fatalf("Op finished at step %d, before the scenario's floor of %d", n, sc.Floor)
			}
			return n
		}
	}
}

// step runs Op once with the crash (or hook) armed at pool access n and
// reports whether it fired.
func (sc *Scenario) step(t *testing.T, n int64, want any) bool {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("at step %d", n)
		}
	}()
	pools := sc.Setup(t)
	arm := func(inj pmem.Injector) {
		if sc.Arm != nil {
			sc.Arm(inj)
			return
		}
		for _, p := range pools {
			p.SetInjector(inj)
		}
	}
	var fired bool
	if sc.Hook != nil {
		h := &hook{at: n, fn: sc.Hook}
		arm(h)
		sc.Op(t)
		arm(nil)
		fired = h.n >= n
	} else {
		for _, p := range pools {
			p.EnableTracking()
		}
		ci := pmem.NewCountdownInjector(n)
		if n > 0 {
			arm(ci)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashSignal); !ok {
						panic(r)
					}
				}
			}()
			sc.Op(t)
		}()
		fired = ci.Tripped()
		arm(nil)
		for i, p := range pools {
			if sc.Evict > 0 {
				p.CrashPartial(sc.Evict, sc.Seed+uint64(i))
			} else {
				p.Crash()
			}
			p.DisableTracking()
		}
		sc.recovered(t)
	}
	if sc.Check != nil {
		sc.Check(t, Point{n, fired})
	}
	if sc.Census != nil {
		if got := sc.Census(t); got != want {
			t.Fatalf("census %+v, never-crashed twin %+v", got, want)
		}
	}
	return fired
}

func (sc *Scenario) recovered(t *testing.T) {
	if sc.Recover != nil {
		sc.Recover(t)
	}
}

// hook runs fn at the at-th pool access after it is armed. Op's accesses
// are counted on one goroutine, so a plain counter does.
type hook struct {
	n, at int64
	fn    func()
}

func (h *hook) Step() {
	if h.n++; h.n == h.at {
		h.fn()
	}
}
