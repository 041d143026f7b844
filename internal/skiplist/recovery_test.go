package skiplist

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// crashList is a list under crashstep: setup builds it afresh and
// returns its one pool, restart opens it again over that pool.
type crashList struct {
	*env
	cfg    Config
	chunks uint64
}

func (c *crashList) setup(t *testing.T) []*pmem.Pool {
	c.env = newEnvChunks(t, c.cfg, c.chunks)
	return []*pmem.Pool{c.pool}
}

func (c *crashList) restart(t *testing.T) { c.env = c.reopen(t) }

// interleaved is an injector for another worker scheduled between two
// of Op's pool accesses: before each access it runs fn, which acts once
// its window is open, and then hands the access to next, the crash's
// countdown. fn's own accesses, from any goroutine, are not counted.
type interleaved struct {
	fn   func()
	next pmem.Injector
	in   atomic.Bool
}

func (w *interleaved) Step() {
	if w.in.Load() {
		return
	}
	w.in.Store(true)
	w.fn()
	w.in.Store(false)
	if w.next != nil {
		w.next.Step()
	}
}

// arm does a Scenario.Arm's work for a scenario over pool: it puts w
// ahead of the crash, or takes both off when inj is nil.
func (w *interleaved) arm(pool *pmem.Pool, inj pmem.Injector) {
	if inj == nil {
		pool.SetInjector(nil)
		return
	}
	w.next = inj
	pool.SetInjector(w)
}

// crashInserts crashes, at each step of at, a burst inserting keys
// (each k with value k*mult) into a list whose keys 1..preload hold k.
// After the crash every preloaded key and every completed insert reads
// back, no other key of the burst holds anything but its value, the
// invariants hold, the reads claimed stale nodes, and the list is still
// fully writable (deferred log recovery and split recovery on the stale
// nodes).
func crashInserts(t *testing.T, at []int64, preload uint64, keys []uint64, mult uint64) {
	e := &crashList{cfg: Config{MaxHeight: 10, KeysPerNode: 4}, chunks: 512}
	var done map[uint64]bool
	crashstep.Run(t, crashstep.Scenario{
		At: at,
		Setup: func(t *testing.T) []*pmem.Pool {
			pools, ctx := e.setup(t), ctx0()
			for i := uint64(1); i <= preload; i++ {
				e.sl.Insert(ctx, i, i)
			}
			done = map[uint64]bool{}
			return pools
		},
		Op: func(t *testing.T) {
			ctx := ctx0()
			for _, k := range keys {
				if _, _, err := e.sl.Insert(ctx, k, k*mult); err != nil {
					t.Fatalf("insert: %v", err)
				}
				done[k] = true
			}
		},
		Recover: e.restart,
		Check: func(t *testing.T, _ crashstep.Point) {
			ctx := ctx0()
			// Durable prefix: every operation that returned before the
			// crash persisted its effects before returning.
			for i := uint64(1); i <= preload; i++ {
				if v, ok := e.sl.Get(ctx, i); !ok || v != i {
					t.Fatalf("preloaded key %d: %d %v", i, v, ok)
				}
			}
			// The interrupted insert may or may not have taken effect.
			for _, k := range keys {
				if v, ok := e.sl.Get(ctx, k); done[k] && (!ok || v != k*mult) {
					t.Fatalf("completed insert %d lost or wrong: %d %v", k, v, ok)
				} else if ok && v != k*mult {
					t.Fatalf("phantom value for key %d: %d", k, v)
				}
			}
			if err := e.sl.CheckInvariants(ctx); err != nil {
				t.Fatal(err)
			}
			if rec := e.sl.RecoveryStats(); rec.Claims == 0 && len(done) > 0 {
				t.Fatal("no epoch claims during post-crash reads")
			}
			for i := uint64(200); i < 260; i++ {
				if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.sl.CheckInvariants(ctx); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// TestCrashAtEveryEarlyStep sweeps the crash point through the first few
// thousand pool accesses of an insert burst (crashInserts).
func TestCrashAtEveryEarlyStep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep")
	}
	var keys []uint64
	for k := uint64(100); k < 160; k++ {
		keys = append(keys, k)
	}
	crashInserts(t, crashstep.Range(1, 4001, 100), 40, keys, 2)
}

// TestCrashDuringSplitsRecovers packs nodes so inserts split constantly,
// then sweeps crash points; interrupted splits must be repaired on
// reopen (CheckForNodeSplitRecovery) without losing or duplicating keys.
func TestCrashDuringSplitsRecovers(t *testing.T) {
	for _, step := range []int64{200, 500, 900, 1400, 2000, 2700, 3500} {
		// Interleaved keys maximize in-node churn and splits.
		var keys []uint64
		for _, i := range rand.New(rand.NewSource(step)).Perm(200) {
			keys = append(keys, uint64(i+1))
		}
		crashInserts(t, []int64{step}, 0, keys, 3)
	}
}

// TestStaleReadLockDiscarded reproduces the DrainReaders hazard: a
// reader count stamped in a dead epoch must not block splits in the new
// epoch.
func TestStaleReadLockDiscarded(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for i := uint64(1); i <= 4; i++ {
		e.sl.Insert(ctx, i*10, i)
	}
	// Simulate a thread that died holding a read lock on the data node.
	p := e.sl.node(e.sl.node(e.sl.head).next(e.sl, 0, ctx.Mem))
	if !p.readLock(e.clock.Current(), ctx.Mem) {
		t.Fatal("read lock failed")
	}
	// No unlock: the "thread" dies here; the system crashes.
	e2 := e.reopen(t)
	ctx2 := ctx0()
	// Fill the node so the next insert must split it: the split's write
	// lock must discard the dead epoch's reader count instead of
	// spinning forever.
	for i := uint64(11); i <= 13; i++ {
		if _, _, err := e2.sl.Insert(ctx2, i, i); err != nil {
			t.Fatal(err)
		}
	}
	// This insert needs a split of the (full) first node.
	if _, _, err := e2.sl.Insert(ctx2, 14, 14); err != nil {
		t.Fatal(err)
	}
	if err := e2.sl.CheckInvariants(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestWriteLockBlocksStaleAndLiveMix checks the lock-word epoch logic
// directly.
func TestWriteLockBlocksStaleAndLiveMix(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	e.sl.Insert(ctx, 5, 50)
	n := e.sl.node(e.sl.node(e.sl.head).next(e.sl, 0, ctx.Mem))
	cur := e.clock.Current()

	// Live reader blocks writer.
	if !n.readLock(cur, ctx.Mem) {
		t.Fatal("readLock failed")
	}
	if n.writeLock(cur, ctx.Mem) {
		t.Fatal("writeLock succeeded over a live reader")
	}
	n.readUnlock(ctx.Mem)

	// Dead-epoch reader does not block writer.
	if !n.readLock(cur-1+100, ctx.Mem) { // stamp a different epoch
		t.Fatal("stale-stamp readLock failed")
	}
	if !n.writeLock(cur, ctx.Mem) {
		t.Fatal("writeLock blocked by dead-epoch reader")
	}
	if !n.isWriteLocked(ctx.Mem) {
		t.Fatal("writer bit missing")
	}
	// Reader cannot join while write-locked.
	if n.readLock(cur, ctx.Mem) {
		t.Fatal("readLock succeeded under writer")
	}
	n.writeUnlock(cur, ctx.Mem)
	if !n.readLock(cur, ctx.Mem) {
		t.Fatal("readLock failed after writeUnlock")
	}
	n.readUnlock(ctx.Mem)
}

// TestSplitRepairErasesByRange crashes a split at each of its steps.
// Once the new node's link is flushed and before the split erases the
// moved keys from the node it splits, a second worker first fills the
// new node and splits it in turn, which carries some of the copied keys
// one node further. Recovery must erase from the interrupted node every
// key at or above its successor's first key, not only the keys it finds
// in that successor: a copy left behind is a key outside the node's
// range, and CheckInvariants reports it.
func TestSplitRepairErasesByRange(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 8, KeysPerNode: 4}, chunks: 4}
	var (
		ctx      *exec.Ctx
		victim   nodeRef
		oldSucc  riv.Ptr
		hooked   bool
		hookRuns int
	)
	moved := []uint64{35, 45, 47} // into the new node {30, 40}: fills it, then splits it
	second := &interleaved{fn: func() {
		// Act once, between the link's flush and the first erase: the
		// node is write-locked, its successor is the new node, nothing is
		// left unflushed, and it still holds both moved keys.
		if hooked || !victim.isWriteLocked(nil) || victim.next(e.sl, 0, nil) == oldSucc || e.pool.DirtyLines() != 0 ||
			e.sl.scanInternalKeys(ctx0(), victim, 40) < 0 {
			return
		}
		w := exec.NewCtx(1, 0)
		for _, k := range moved {
			if _, _, err := e.sl.Insert(w, k, k); err != nil {
				t.Fatal(err)
			}
		}
		hooked = true
	}}
	crashstep.Run(t, crashstep.Scenario{
		From: 1,
		Setup: func(t *testing.T) []*pmem.Pool {
			pools := e.setup(t)
			ctx, hooked = ctx0(), false
			for _, k := range []uint64{10, 20, 30, 40} {
				if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
					t.Fatal(err)
				}
			}
			victim = e.sl.node(e.sl.node(e.sl.head).next(e.sl, 0, nil))
			oldSucc = victim.next(e.sl, 0, nil)
			return pools
		},
		Arm: func(inj pmem.Injector) { second.arm(e.pool, inj) },
		// Insert 50 into the full node [10, 40]: it splits, moving {30, 40}.
		Op:      func(t *testing.T) { e.sl.Insert(ctx, 50, 50) },
		Recover: e.restart,
		Check: func(t *testing.T, p crashstep.Point) {
			ctx := ctx0()
			if err := e.sl.CheckInvariants(ctx); err != nil {
				t.Fatalf("step %d (second worker ran: %v): %v", p.Step, hooked, err)
			}
			want := []uint64{10, 20, 30, 40}
			if hooked {
				want = append(want, moved...)
				hookRuns++
			}
			for _, k := range want {
				if v, ok := e.sl.Get(ctx, k); !ok || v != k {
					t.Fatalf("step %d: acknowledged key %d lost: %d,%v", p.Step, k, v, ok)
				}
			}
		},
	})
	if hookRuns == 0 {
		t.Fatal("the second worker never ran between the link and the erase")
	}
	t.Logf("the second worker split the new node before %d of the crashes", hookRuns)
}

// TestRetireWaitsForSplitErase crashes a split at each of its steps
// while online reclaim is on. Between the new node's link and the erase
// of the keys it took, a second worker removes those keys from the new
// node, which empties it. Retired then, the node would be unlinked from
// the splitter, whose repair — erasing from its new successor's first
// key up — would keep the stale copies and bring the removed keys back.
// retire refuses a node whose bottom predecessor is write-locked.
func TestRetireWaitsForSplitErase(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 8, KeysPerNode: 4}, chunks: 4}
	var (
		ctx      *exec.Ctx
		splitter nodeRef
		oldSucc  riv.Ptr
		hooked   bool
		hookRuns int
	)
	second := &interleaved{fn: func() {
		if hooked || !splitter.isWriteLocked(nil) || splitter.next(e.sl, 0, nil) == oldSucc || e.pool.DirtyLines() != 0 ||
			e.sl.scanInternalKeys(ctx0(), splitter, 40) < 0 {
			return
		}
		w := exec.NewCtx(1, 0)
		for _, k := range []uint64{30, 40} {
			if _, _, err := e.sl.Remove(w, k); err != nil {
				t.Fatal(err)
			}
		}
		hooked = true
	}}
	crashstep.Run(t, crashstep.Scenario{
		From: 1,
		Setup: func(t *testing.T) []*pmem.Pool {
			pools := e.setup(t)
			ctx, hooked = ctx0(), false
			for _, k := range []uint64{10, 20, 30, 40} {
				if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
					t.Fatal(err)
				}
			}
			splitter = e.sl.node(e.sl.node(e.sl.head).next(e.sl, 0, nil))
			oldSucc = splitter.next(e.sl, 0, nil)
			e.sl.SetOnlineReclaim(true)
			return pools
		},
		Arm: func(inj pmem.Injector) { second.arm(e.pool, inj) },
		// Insert 50 into the full node [10, 40]: it splits, moving {30, 40}.
		Op:      func(t *testing.T) { e.sl.Insert(ctx, 50, 50) },
		Recover: e.restart,
		Check: func(t *testing.T, p crashstep.Point) {
			ctx := ctx0()
			if err := e.sl.CheckInvariants(ctx); err != nil {
				t.Fatalf("step %d (second worker ran: %v): %v", p.Step, hooked, err)
			}
			for _, k := range []uint64{10, 20} {
				if v, ok := e.sl.Get(ctx, k); !ok || v != k {
					t.Fatalf("step %d: key %d lost: %d,%v", p.Step, k, v, ok)
				}
			}
			if hooked {
				hookRuns++
				for _, k := range []uint64{30, 40} {
					if v, ok := e.sl.Get(ctx, k); ok {
						t.Fatalf("step %d: key %d, removed before the crash, is back with %d", p.Step, k, v)
					}
				}
			}
		},
	})
	if hookRuns == 0 {
		t.Fatal("the second worker never ran between the link and the erase")
	}
}
