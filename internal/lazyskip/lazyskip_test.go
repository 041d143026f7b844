package lazyskip

import (
	"math/rand"
	"sync"
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmdktx"
	"upskiplist/internal/pmem"
)

func newList(t testing.TB, regionWords uint64) (*List, *pmdktx.Heap, *pmem.Pool) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Config{ID: 1, Words: regionWords, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pmdktx.Format(pool, 0, pmdktx.Config{RegionWords: regionWords, NumLogs: 32, LogCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Create(h, 12)
	if err != nil {
		t.Fatal(err)
	}
	return l, h, pool
}

func ctxN(id int) *exec.Ctx { return exec.NewCtx(id, 0) }

func TestInsertGetRemove(t *testing.T) {
	l, _, _ := newList(t, 1<<20)
	ctx := ctxN(0)
	old, existed, err := l.Insert(ctx, 10, 100)
	if err != nil || existed || old != 0 {
		t.Fatalf("insert: %d %v %v", old, existed, err)
	}
	if v, ok := l.Get(ctx, 10); !ok || v != 100 {
		t.Fatalf("get: %d %v", v, ok)
	}
	old, existed, err = l.Insert(ctx, 10, 200)
	if err != nil || !existed || old != 100 {
		t.Fatalf("update: %d %v %v", old, existed, err)
	}
	old, ok, err := l.Remove(ctx, 10)
	if err != nil || !ok || old != 200 {
		t.Fatalf("remove: %d %v %v", old, ok, err)
	}
	if _, ok := l.Get(ctx, 10); ok {
		t.Fatal("removed key visible")
	}
	if _, ok, _ := l.Remove(ctx, 10); ok {
		t.Fatal("double remove")
	}
}

func TestKeyValidation(t *testing.T) {
	l, _, _ := newList(t, 1<<20)
	ctx := ctxN(0)
	if _, _, err := l.Insert(ctx, 0, 1); err == nil {
		t.Fatal("accepted key 0")
	}
	if _, _, err := l.Insert(ctx, ^uint64(0), 1); err == nil {
		t.Fatal("accepted +inf key")
	}
	if _, ok := l.Get(ctx, 0); ok {
		t.Fatal("Get(0)")
	}
}

func TestManyKeysSorted(t *testing.T) {
	l, _, _ := newList(t, 1<<22)
	ctx := ctxN(0)
	const n = 1000
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		k := uint64(i + 1)
		if _, _, err := l.Insert(ctx, k, k*5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		if v, ok := l.Get(ctx, uint64(i)); !ok || v != uint64(i)*5 {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
	if c := l.Count(ctx); c != n {
		t.Fatalf("count = %d", c)
	}
}

func TestModelEquivalence(t *testing.T) {
	l, _, _ := newList(t, 1<<22)
	ctx := ctxN(0)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(150) + 1)
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Uint64() >> 1
			old, existed, err := l.Insert(ctx, k, v)
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if existed != mok || (mok && old != mv) {
				t.Fatalf("op %d insert(%d): %d,%v model %d,%v", i, k, old, existed, mv, mok)
			}
			model[k] = v
		case 2:
			v, ok := l.Get(ctx, k)
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("op %d get(%d): %d,%v model %d,%v", i, k, v, ok, mv, mok)
			}
		default:
			old, ok, err := l.Remove(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if ok != mok || (mok && old != mv) {
				t.Fatalf("op %d remove(%d): %d,%v model %d,%v", i, k, old, ok, mv, mok)
			}
			delete(model, k)
		}
	}
	if c := l.Count(ctx); c != len(model) {
		t.Fatalf("count %d model %d", c, len(model))
	}
}

func TestConcurrentMixed(t *testing.T) {
	l, _, _ := newList(t, 1<<23)
	const workers, rounds = 6, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := ctxN(id)
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < rounds; i++ {
				k := uint64(rng.Intn(100) + 1)
				switch rng.Intn(3) {
				case 0:
					if _, _, err := l.Insert(ctx, k, k*3); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				case 1:
					if v, ok := l.Get(ctx, k); ok && v != k*3 {
						t.Errorf("key %d value %d", k, v)
						return
					}
				default:
					if _, _, err := l.Remove(ctx, k); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentDisjointInserts(t *testing.T) {
	l, _, _ := newList(t, 1<<23)
	const workers, per = 6, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := ctxN(id)
			for i := 0; i < per; i++ {
				k := uint64(id*per + i + 1)
				if _, _, err := l.Insert(ctx, k, k); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ctx := ctxN(0)
	if c := l.Count(ctx); c != workers*per {
		t.Fatalf("count = %d, want %d", c, workers*per)
	}
}

func TestReopenAfterCleanShutdown(t *testing.T) {
	l, h, _ := newList(t, 1<<21)
	ctx := ctxN(0)
	for i := uint64(1); i <= 200; i++ {
		l.Insert(ctx, i, i+5)
	}
	l2, err := Open(h, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		if v, ok := l2.Get(ctx, i); !ok || v != i+5 {
			t.Fatalf("key %d after reopen: %d %v", i, v, ok)
		}
	}
}

func TestCrashDuringInsertsRollsBack(t *testing.T) {
	var (
		l *List
		h *pmdktx.Heap
	)
	ctx := ctxN(0)
	crashstep.Run(t, crashstep.Scenario{
		At: []int64{100, 400, 1500, 4000},
		Setup: func(t *testing.T) []*pmem.Pool {
			var pool *pmem.Pool
			l, h, pool = newList(t, 1<<22)
			for i := uint64(1); i <= 50; i++ {
				l.Insert(ctx, i, i)
			}
			return []*pmem.Pool{pool}
		},
		Op: func(t *testing.T) {
			for i := uint64(100); i < 200; i++ {
				if _, _, err := l.Insert(ctx, i, i*2); err != nil {
					return
				}
			}
		},
		Recover: func(t *testing.T) {
			var err error
			if l, err = Open(h, true); err != nil {
				t.Fatal(err)
			}
		},
		Check: func(t *testing.T, _ crashstep.Point) {
			// The preloaded keys must be intact; the structure must be
			// traversable end-to-end (no dangling links from the torn tx).
			for i := uint64(1); i <= 50; i++ {
				if v, ok := l.Get(ctx, i); !ok || v != i {
					t.Fatalf("preloaded key %d: %d %v", i, v, ok)
				}
			}
			_ = l.Count(ctx) // must terminate
			// And remain writable (locks from the dead epoch are stolen).
			if _, _, err := l.Insert(ctx, 9999, 1); err != nil {
				t.Fatal(err)
			}
			if v, ok := l.Get(ctx, 9999); !ok || v != 1 {
				t.Fatalf("post-recovery insert lost: %d %v", v, ok)
			}
		},
	})
}

func TestStaleLockStolenAfterCrash(t *testing.T) {
	l, h, pool := newList(t, 1<<21)
	ctx := ctxN(0)
	l.Insert(ctx, 5, 50)
	// Find node 5 and lock it, then "crash" (epoch bump) without
	// unlocking.
	preds := make([]uint64, l.maxHeight)
	succs := make([]uint64, l.maxHeight)
	lf := l.find(ctx, 5, preds, succs)
	node := succs[lf]
	l.lock(ctx, node)
	pool.Store(node+nOffLock, l.curEpoch(nil)<<1|1, nil) // ensure stamped

	l2, err := Open(h, true) // bumps epoch
	if err != nil {
		t.Fatal(err)
	}
	// Updating key 5 requires the node lock: it must be stolen, not
	// deadlock.
	if _, _, err := l2.Insert(ctx, 5, 51); err != nil {
		t.Fatal(err)
	}
	if v, _ := l2.Get(ctx, 5); v != 51 {
		t.Fatalf("value = %d", v)
	}
}

func TestScan(t *testing.T) {
	l, _, _ := newList(t, 1<<21)
	ctx := ctxN(0)
	for i := uint64(1); i <= 50; i++ {
		l.Insert(ctx, i*2, i) // even keys 2..100
	}
	l.Remove(ctx, 10)
	var keys []uint64
	n := l.Scan(ctx, 5, 10, func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	})
	if n != 10 || len(keys) != 10 {
		t.Fatalf("scan saw %d keys: %v", n, keys)
	}
	if keys[0] != 6 { // 5 rounds up to 6; 10 was removed
		t.Fatalf("first key %d, want 6", keys[0])
	}
	for _, k := range keys {
		if k == 10 {
			t.Fatal("scan returned removed key")
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("scan out of order")
		}
	}
	// Early stop.
	count := 0
	l.Scan(ctx, 1, 100, func(k, v uint64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop after %d", count)
	}
	// Scan past the end.
	if n := l.Scan(ctx, 1000, 5, nil); n != 0 {
		t.Fatalf("scan past end saw %d", n)
	}
}
