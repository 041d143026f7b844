package skiplist

import (
	"math/rand"
	"sync"
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
)

func TestCompactReclaimsEmptyNodes(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for i := uint64(1); i <= 200; i++ {
		e.sl.Insert(ctx, i, i)
	}
	nodesBefore := e.sl.Stats(ctx).Nodes
	// Remove a whole contiguous range: those nodes become pure tombstones.
	for i := uint64(50); i <= 150; i++ {
		e.sl.Remove(ctx, i)
	}
	n, err := e.sl.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("compact reclaimed nothing")
	}
	st := e.sl.Stats(ctx)
	if st.Nodes >= nodesBefore {
		t.Fatalf("nodes %d -> %d after compact", nodesBefore, st.Nodes)
	}
	// Live keys intact, removed keys gone.
	for i := uint64(1); i <= 200; i++ {
		v, ok := e.sl.Get(ctx, i)
		if i >= 50 && i <= 150 {
			if ok {
				t.Fatalf("removed key %d visible after compact", i)
			}
		} else if !ok || v != i {
			t.Fatalf("live key %d: %d %v", i, v, ok)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	// Reinsertion into the compacted range works.
	for i := uint64(60); i <= 80; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCompactIdempotentWhenNothingToDo(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	for i := uint64(1); i <= 50; i++ {
		e.sl.Insert(ctx, i, i)
	}
	if n, err := e.sl.Compact(ctx); err != nil || n != 0 {
		t.Fatalf("compact on live list: n=%d err=%v", n, err)
	}
}

func TestCompactReturnsBlocksToAllocator(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 2})
	ctx := ctx0()
	for i := uint64(1); i <= 100; i++ {
		e.sl.Insert(ctx, i, i)
	}
	for i := uint64(1); i <= 100; i++ {
		e.sl.Remove(ctx, i)
	}
	freeBefore := 0
	for a := 0; a < e.pa.Config().NumArenas; a++ {
		freeBefore += e.a.FreeListLen(e.pa, a)
	}
	n, err := e.sl.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	freeAfter := 0
	for a := 0; a < e.pa.Config().NumArenas; a++ {
		freeAfter += e.a.FreeListLen(e.pa, a)
	}
	if freeAfter != freeBefore+n {
		t.Fatalf("free blocks %d -> %d after reclaiming %d nodes", freeBefore, freeAfter, n)
	}
	if c := e.sl.Count(ctx); c != 0 {
		t.Fatalf("count = %d after full removal+compact", c)
	}
}

// TestCompactCrashRecovery crashes a compaction at every pmem step it
// makes; the next Open must finish or cleanly abandon the interrupted
// retirement, and a second Compact must leave exactly the blocks a twin
// that was never crashed owns.
func TestCompactCrashRecovery(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 10, KeysPerNode: 4}, chunks: 4}
	build := func(t *testing.T) []*pmem.Pool {
		pools, ctx := e.setup(t), ctx0()
		for i := uint64(1); i <= 80; i++ {
			e.sl.Insert(ctx, i, i)
		}
		for i := uint64(20); i <= 60; i++ {
			e.sl.Remove(ctx, i)
		}
		return pools
	}
	n := crashstep.Run(t, crashstep.Scenario{
		From: 1, Floor: 500, // fewer steps cannot have retired anything
		Setup: build,
		Op:    func(t *testing.T) { e.sl.Compact(ctx0()) },
		Twin: func(t *testing.T) {
			build(t)
			if n, err := e.sl.Compact(ctx0()); err != nil || n == 0 {
				t.Fatalf("twin compact: n=%d err=%v", n, err)
			}
		},
		Recover: e.restart, // Open runs recoverCompaction
		// Read every key, compact again, count the blocks.
		Census: func(t *testing.T) any {
			ctx2 := ctx0()
			for i := uint64(1); i <= 80; i++ {
				v, ok := e.sl.Get(ctx2, i)
				if i >= 20 && i <= 60 {
					if ok {
						t.Fatalf("removed key %d visible", i)
					}
				} else if !ok || v != i {
					t.Fatalf("live key %d: %d %v", i, v, ok)
				}
			}
			if err := e.sl.CheckInvariants(ctx2); err != nil {
				t.Fatal(err)
			}
			// A fresh compact completes whatever was left.
			if _, err := e.sl.Compact(ctx2); err != nil {
				t.Fatal(err)
			}
			if err := e.sl.CheckInvariants(ctx2); err != nil {
				t.Fatalf("post-compact: %v", err)
			}
			c := e.a.Census()
			if c.Retired != 0 {
				t.Fatalf("census %+v: retired blocks left after compact", c)
			}
			// Still writable.
			for i := uint64(300); i < 320; i++ {
				if _, _, err := e.sl.Insert(ctx2, i, i); err != nil {
					t.Fatal(err)
				}
			}
			return c
		},
	})
	t.Logf("crashed the compaction at each of its %d pmem steps", n-1)
}

// TestCompactCostLinear pins the cost of the one-pass compaction: pool
// loads per reclaimed node must not grow with the list. (Restarting the
// victim search from the head for every node, as the pre-retire Compact
// did, costs 823 loads per node at 1 000 keys and 6 075 at 8 000.)
func TestCompactCostLinear(t *testing.T) {
	loadsPerNode := func(keys uint64) float64 {
		e := newEnv(t, Config{MaxHeight: 16, KeysPerNode: 4})
		ctx := ctx0()
		for i := uint64(1); i <= keys; i++ {
			e.sl.Insert(ctx, i, i)
		}
		for i := keys/2 + 1; i <= keys; i++ {
			e.sl.Remove(ctx, i)
		}
		ctx.Mem.Publish()
		before := e.pool.Stats().Snapshot().Loads
		n, err := e.sl.Compact(ctx)
		if err != nil || n == 0 {
			t.Fatalf("%d keys: compact n=%d err=%v", keys, n, err)
		}
		ctx.Mem.Publish()
		return float64(e.pool.Stats().Snapshot().Loads-before) / float64(n)
	}
	small, large := loadsPerNode(1000), loadsPerNode(8000)
	t.Logf("loads per reclaimed node: %.0f at 1000 keys, %.0f at 8000 keys (%.2fx)", small, large, large/small)
	if large > 1.5*small {
		t.Fatalf("loads per reclaimed node grew %.2fx from 1000 to 8000 keys (%.0f -> %.0f), want <= 1.5x",
			large/small, small, large)
	}
}

func TestCompactChurnCycles(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	rng := rand.New(rand.NewSource(3))
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 150; i++ {
			k := uint64(rng.Intn(200) + 1)
			e.sl.Insert(ctx, k, k)
		}
		for i := 0; i < 150; i++ {
			k := uint64(rng.Intn(200) + 1)
			e.sl.Remove(ctx, k)
		}
		if _, err := e.sl.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		if err := e.sl.CheckInvariants(ctx); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}

// TestCompactBetweenConcurrentPhases alternates concurrent workload
// phases with quiesced compaction, the intended production usage (like a
// vacuum): reclaimed blocks must be safely recycled by later phases.
func TestCompactBetweenConcurrentPhases(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	const workers, keyspace = 4, 300
	for phase := 0; phase < 6; phase++ {
		var wg sync.WaitGroup
		for id := 0; id < workers; id++ {
			wg.Add(1)
			go func(id, phase int) {
				defer wg.Done()
				ctx := exec.NewCtx(id, 0)
				rng := rand.New(rand.NewSource(int64(phase*10 + id)))
				for i := 0; i < 300; i++ {
					k := uint64(rng.Intn(keyspace) + 1)
					if rng.Intn(2) == 0 {
						if _, _, err := e.sl.Insert(ctx, k, k*11); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
					} else {
						if _, _, err := e.sl.Remove(ctx, k); err != nil {
							t.Errorf("remove: %v", err)
							return
						}
					}
				}
			}(id, phase)
		}
		wg.Wait()
		ctx := ctx0()
		if _, err := e.sl.Compact(ctx); err != nil {
			t.Fatalf("phase %d compact: %v", phase, err)
		}
		if err := e.sl.CheckInvariants(ctx); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		e.sl.Scan(ctx, 1, keyspace, func(k, v uint64) bool {
			if v != k*11 {
				t.Errorf("phase %d: key %d value %d", phase, k, v)
				return false
			}
			return true
		})
	}
}
