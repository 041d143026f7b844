package skiplist

import (
	"math/rand"
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/pmem"
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
