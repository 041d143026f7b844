package bztree

import (
	"math/rand"
	"sync"
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
)

func newTree(t testing.TB, cfg Config) (*Tree, *pmem.Pool) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Config{Words: cfg.RegionWords, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pool, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool
}

func smallCfg() Config {
	return Config{LeafCapacity: 8, Descriptors: 256, NumThreads: 8, RegionWords: 1 << 21}
}

func ctxN(id int) *exec.Ctx { return exec.NewCtx(id, 0) }

func TestInsertGetSingle(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	old, existed, err := tr.Insert(ctx, 42, 1000)
	if err != nil || existed || old != 0 {
		t.Fatalf("insert: %d %v %v", old, existed, err)
	}
	if v, ok := tr.Get(ctx, 42); !ok || v != 1000 {
		t.Fatalf("get: %d %v", v, ok)
	}
	if _, ok := tr.Get(ctx, 43); ok {
		t.Fatal("phantom key")
	}
}

func TestUpdateReturnsOld(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	tr.Insert(ctx, 7, 100)
	old, existed, err := tr.Insert(ctx, 7, 200)
	if err != nil || !existed || old != 100 {
		t.Fatalf("update: %d %v %v", old, existed, err)
	}
	if v, _ := tr.Get(ctx, 7); v != 200 {
		t.Fatalf("value = %d", v)
	}
}

func TestRemoveAndReinsert(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	tr.Insert(ctx, 5, 50)
	old, ok, err := tr.Remove(ctx, 5)
	if err != nil || !ok || old != 50 {
		t.Fatalf("remove: %d %v %v", old, ok, err)
	}
	if _, ok := tr.Get(ctx, 5); ok {
		t.Fatal("removed key visible")
	}
	if _, ok, _ := tr.Remove(ctx, 5); ok {
		t.Fatal("double remove reported present")
	}
	if _, existed, _ := tr.Insert(ctx, 5, 51); existed {
		t.Fatal("reinsert after remove reported existed")
	}
	if v, ok := tr.Get(ctx, 5); !ok || v != 51 {
		t.Fatalf("reinserted: %d %v", v, ok)
	}
}

func TestValueAndKeyValidation(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	if _, _, err := tr.Insert(ctx, 1, Tombstone); err == nil {
		t.Fatal("accepted tombstone value")
	}
	if _, _, err := tr.Insert(ctx, 0, 1); err == nil {
		t.Fatal("accepted key 0")
	}
	if _, _, err := tr.Insert(ctx, ^uint64(0), 1); err == nil {
		t.Fatal("accepted out-of-range key")
	}
}

func TestSplitsAndOrderPreserved(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	const n = 500
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		k := uint64(i + 1)
		if _, _, err := tr.Insert(ctx, k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	if lv := tr.Leaves(ctx); lv < n/8 {
		t.Fatalf("only %d leaves after %d inserts with cap 8", lv, n)
	}
	for i := 1; i <= n; i++ {
		v, ok := tr.Get(ctx, uint64(i))
		if !ok || v != uint64(i)*3 {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
	if c := tr.Count(ctx); c != n {
		t.Fatalf("count = %d, want %d", c, n)
	}
}

func TestConsolidationDropsTombstones(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	// Fill one leaf region and remove most keys, then force a split by
	// continuing to insert: consolidation should drop tombstones.
	for i := uint64(1); i <= 8; i++ {
		tr.Insert(ctx, i, i)
	}
	for i := uint64(1); i <= 7; i++ {
		tr.Remove(ctx, i)
	}
	for i := uint64(10); i <= 30; i++ {
		tr.Insert(ctx, i, i)
	}
	if c := tr.Count(ctx); c != 22 { // key 8 + keys 10..30
		t.Fatalf("count = %d, want 22", c)
	}
	for i := uint64(1); i <= 7; i++ {
		if _, ok := tr.Get(ctx, i); ok {
			t.Fatalf("tombstoned key %d resurfaced", i)
		}
	}
}

func TestModelEquivalence(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(250) + 1)
		switch rng.Intn(4) {
		case 0, 1:
			v := uint64(rng.Intn(1 << 30))
			old, existed, err := tr.Insert(ctx, k, v)
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if existed != mok || (mok && old != mv) {
				t.Fatalf("op %d insert(%d): %d,%v model %d,%v", i, k, old, existed, mv, mok)
			}
			model[k] = v
		case 2:
			v, ok := tr.Get(ctx, k)
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("op %d get(%d): %d,%v model %d,%v", i, k, v, ok, mv, mok)
			}
		default:
			old, ok, err := tr.Remove(ctx, k)
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
	if c := tr.Count(ctx); c != len(model) {
		t.Fatalf("count %d, model %d", c, len(model))
	}
}

func TestConcurrentInsertsDisjoint(t *testing.T) {
	cfg := smallCfg()
	cfg.RegionWords = 1 << 23
	tr, _ := newTree(t, cfg)
	const workers, per = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := ctxN(id)
			for i := 0; i < per; i++ {
				k := uint64(id*per + i + 1)
				if _, _, err := tr.Insert(ctx, k, k); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ctx := ctxN(0)
	for k := uint64(1); k <= workers*per; k++ {
		if v, ok := tr.Get(ctx, k); !ok || v != k {
			t.Fatalf("key %d: %d %v", k, v, ok)
		}
	}
	if c := tr.Count(ctx); c != workers*per {
		t.Fatalf("count = %d", c)
	}
}

func TestConcurrentUpdatesSameKeys(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	for k := uint64(1); k <= 20; k++ {
		tr.Insert(ctx, k, 1)
	}
	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := ctxN(id)
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < rounds; i++ {
				k := uint64(rng.Intn(20) + 1)
				if _, _, err := tr.Insert(c, k, uint64(rng.Intn(1<<30))+1); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c := tr.Count(ctx); c != 20 {
		t.Fatalf("count = %d, want 20", c)
	}
	if tr.Manager().Stats().Executes.Load() == 0 {
		t.Fatal("no PMwCAS activity recorded")
	}
}

func TestAttachRecovers(t *testing.T) {
	tr, pool := newTree(t, smallCfg())
	ctx := ctxN(0)
	for i := uint64(1); i <= 100; i++ {
		tr.Insert(ctx, i, i+7)
	}
	tr2, processed, err := Attach(pool, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = processed
	for i := uint64(1); i <= 100; i++ {
		if v, ok := tr2.Get(ctx, i); !ok || v != i+7 {
			t.Fatalf("after attach key %d: %d %v", i, v, ok)
		}
	}
}

func TestCrashDuringInsertsThenRecover(t *testing.T) {
	var (
		tr      *Tree
		pool    *pmem.Pool
		applied map[uint64]uint64
	)
	ctx := ctxN(0)
	crashstep.Run(t, crashstep.Scenario{
		At: []int64{50, 200, 1000, 5000},
		Setup: func(t *testing.T) []*pmem.Pool {
			tr, pool = newTree(t, smallCfg())
			for i := uint64(1); i <= 50; i++ {
				tr.Insert(ctx, i, i)
			}
			applied = map[uint64]uint64{}
			return []*pmem.Pool{pool}
		},
		Op: func(t *testing.T) {
			for i := uint64(100); i < 200; i++ {
				if _, _, err := tr.Insert(ctx, i, i*2); err != nil {
					return
				}
				applied[i] = i * 2
			}
		},
		Recover: func(t *testing.T) {
			var err error
			if tr, _, err = Attach(pool, 0, 8); err != nil {
				t.Fatal(err)
			}
		},
		Check: func(t *testing.T, _ crashstep.Point) {
			// Preloaded keys must all survive (they were quiesced... but their
			// leaves may have been split mid-crash; recovery must keep them).
			for i := uint64(1); i <= 50; i++ {
				if v, ok := tr.Get(ctx, i); !ok || v != i {
					t.Fatalf("preloaded key %d lost (%d %v)", i, v, ok)
				}
			}
			// Completed inserts whose effects were persisted must read
			// consistently: value either correct or the key absent (the op
			// that reported success before the crash may sit in an unflushed
			// line — strict linearizability allows it to vanish only if it
			// never became durable; here we only check no corruption).
			for k, want := range applied {
				if v, ok := tr.Get(ctx, k); ok && v != want {
					t.Fatalf("key %d corrupted: %d != %d", k, v, want)
				}
			}
		},
	})
}

func BenchmarkBzTreeInsert(b *testing.B) {
	cfg := Config{LeafCapacity: 64, Descriptors: 4096, NumThreads: 4, RegionWords: 1 << 24}
	tr, _ := newTree(b, cfg)
	ctx := ctxN(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Insert(ctx, uint64(i%100000+1), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScan(t *testing.T) {
	tr, _ := newTree(t, smallCfg())
	ctx := ctxN(0)
	for i := uint64(1); i <= 200; i++ {
		tr.Insert(ctx, i*2, i)
	}
	tr.Remove(ctx, 100)
	var keys []uint64
	n := tr.Scan(ctx, 95, 10, func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	})
	if n != 10 {
		t.Fatalf("scan saw %d", n)
	}
	if keys[0] != 96 { // 95 rounds up to 96; 100 removed
		t.Fatalf("first key %d", keys[0])
	}
	for i, k := range keys {
		if k == 100 {
			t.Fatal("removed key returned")
		}
		if i > 0 && k <= keys[i-1] {
			t.Fatal("out of order")
		}
	}
	// Early stop and off-the-end behaviour.
	count := 0
	tr.Scan(ctx, 1, 1000, func(k, v uint64) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop after %d", count)
	}
	if n := tr.Scan(ctx, 10_000, 5, nil); n != 0 {
		t.Fatalf("past-end scan saw %d", n)
	}
}
