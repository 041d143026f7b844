package crashstep

import (
	"testing"

	"upskiplist/internal/pmem"
)

// TestRunCrashesEveryStep crashes a three-word write, each word stored
// and then persisted, at each of its six pool accesses: after a crash at
// step n exactly the words whose Persist came before n survive, the sweep
// stops at step 7, and a redo brings every crashed pool to the census of
// the twin that never crashed.
func TestRunCrashesEveryStep(t *testing.T) {
	var pool *pmem.Pool
	setup := func(t *testing.T) []*pmem.Pool {
		var err error
		if pool, err = pmem.NewPool(pmem.Config{Words: 64, HomeNode: -1}); err != nil {
			t.Fatal(err)
		}
		return []*pmem.Pool{pool}
	}
	write := func(t *testing.T) {
		for w := uint64(0); w < 3; w++ {
			pool.Store(w, 1, nil)
			pool.Persist(w, 1, nil)
		}
	}
	census := func(t *testing.T) any { return pool.Load(0, nil) + pool.Load(1, nil) + pool.Load(2, nil) }
	var fired []bool
	n := Run(t, Scenario{
		From: 1, Floor: 6,
		Setup: setup,
		Op:    write,
		Twin: func(t *testing.T) {
			setup(t)
			write(t)
		},
		Check: func(t *testing.T, p Point) {
			fired = append(fired, p.Fired)
			persisted := uint64(3)
			if p.Fired {
				persisted = uint64(p.Step-1) / 2
			}
			if got := census(t).(uint64); got != persisted {
				t.Fatalf("step %d: %d words survived, want %d", p.Step, got, persisted)
			}
			write(t)
		},
		Census: census,
	})
	if n != 7 || len(fired) != 7 || fired[5] != true || fired[6] != false {
		t.Fatalf("finished at step %d after %v, want 7 after six crashes", n, fired)
	}
}

// TestRunHookAt runs a hook in place of a crash at listed steps, each a
// subtest: it fires only at a step Op reaches, and nothing is reverted.
func TestRunHookAt(t *testing.T) {
	var pool *pmem.Pool
	var seen uint64
	Run(t, Scenario{
		At: []int64{1, 3, 9},
		Setup: func(t *testing.T) []*pmem.Pool {
			var err error
			if pool, err = pmem.NewPool(pmem.Config{Words: 64, HomeNode: -1}); err != nil {
				t.Fatal(err)
			}
			seen = 0
			return []*pmem.Pool{pool}
		},
		Op: func(t *testing.T) {
			for w := uint64(0); w < 4; w++ {
				pool.Store(w, 1, nil)
			}
		},
		Hook: func() { seen = pool.Load(8, nil) + 1 },
		Check: func(t *testing.T, p Point) {
			if p.Fired != (p.Step <= 4) || p.Fired && seen == 0 {
				t.Fatalf("step %d: fired %v, hook ran %v", p.Step, p.Fired, seen != 0)
			}
			if got := pool.Load(3, nil); got != 1 {
				t.Fatalf("step %d: the last store reads %d", p.Step, got)
			}
		},
	})
}
