package pmdktx

import (
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
)

func newHeap(t testing.TB, cfg Config) (*Heap, *pmem.Pool) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Config{ID: 1, Words: cfg.RegionWords, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Format(pool, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, pool
}

func ctxN(id int) *exec.Ctx { return exec.NewCtx(id, 0) }

func TestFormatAttach(t *testing.T) {
	h, pool := newHeap(t, DefaultConfig())
	h2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.numLogs != h.numLogs || h2.logCap != h.logCap {
		t.Fatal("geometry mismatch after attach")
	}
	blank, _ := pmem.NewPool(pmem.Config{Words: 1 << 12, HomeNode: -1})
	if _, err := Attach(blank, 0); err == nil {
		t.Fatal("attached unformatted heap")
	}
}

func TestAllocZeroesAndAdvances(t *testing.T) {
	h, _ := newHeap(t, DefaultConfig())
	ctx := ctxN(0)
	a, err := h.Alloc(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b < a+16 {
		t.Fatalf("allocations overlap: %d %d", a, b)
	}
	for w := uint64(0); w < 16; w++ {
		if h.Pool().Load(a+w, nil) != 0 {
			t.Fatal("allocation not zeroed")
		}
	}
}

func TestAllocExhaustion(t *testing.T) {
	cfg := Config{RegionWords: 1 << 12, NumLogs: 2, LogCap: 8}
	h, _ := newHeap(t, cfg)
	ctx := ctxN(0)
	var err error
	for i := 0; i < 10000; i++ {
		if _, err = h.Alloc(ctx, 64); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected exhaustion")
	}
}

func TestTxCommitDurable(t *testing.T) {
	h, pool := newHeap(t, DefaultConfig())
	ctx := ctxN(0)
	a, _ := h.Alloc(ctx, 8)
	pool.EnableTracking()
	tx, err := h.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(a, 111)
	tx.Write(a+1, 222)
	tx.Commit()
	pool.Crash() // committed writes must survive
	if pool.Load(a, nil) != 111 || pool.Load(a+1, nil) != 222 {
		t.Fatalf("committed writes lost: %d %d", pool.Load(a, nil), pool.Load(a+1, nil))
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	h, _ := newHeap(t, DefaultConfig())
	ctx := ctxN(0)
	a, _ := h.Alloc(ctx, 8)
	h.Pool().Store(a, 5, nil)
	tx, _ := h.Begin(ctx)
	tx.Write(a, 99)
	if h.Pool().Load(a, nil) != 99 {
		t.Fatal("write not applied in place")
	}
	tx.Abort()
	if h.Pool().Load(a, nil) != 5 {
		t.Fatal("abort did not restore")
	}
	// Log is retired; a new tx can begin.
	if _, err := h.Begin(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestTxWriteDedup(t *testing.T) {
	h, _ := newHeap(t, Config{RegionWords: 1 << 16, NumLogs: 2, LogCap: 2})
	ctx := ctxN(0)
	a, _ := h.Alloc(ctx, 8)
	tx, _ := h.Begin(ctx)
	// Many writes to the same address must consume one log slot.
	for i := uint64(0); i < 100; i++ {
		if err := tx.Write(a, i); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if h.Pool().Load(a, nil) != 99 {
		t.Fatal("last write lost")
	}
}

func TestTxLogFull(t *testing.T) {
	h, _ := newHeap(t, Config{RegionWords: 1 << 16, NumLogs: 2, LogCap: 2})
	ctx := ctxN(0)
	a, _ := h.Alloc(ctx, 8)
	tx, _ := h.Begin(ctx)
	tx.Write(a, 1)
	tx.Write(a+1, 2)
	if err := tx.Write(a+2, 3); err == nil {
		t.Fatal("exceeded log capacity silently")
	}
	tx.Abort()
}

func TestNestedBeginRejected(t *testing.T) {
	h, _ := newHeap(t, DefaultConfig())
	ctx := ctxN(0)
	tx, _ := h.Begin(ctx)
	if _, err := h.Begin(ctx); err == nil {
		t.Fatal("nested Begin for same thread accepted")
	}
	tx.Commit()
}

func TestRecoveryRollsBackActiveTx(t *testing.T) {
	h, pool := newHeap(t, DefaultConfig())
	ctx := ctxN(0)
	a, _ := h.Alloc(ctx, 8)
	pool.Store(a, 7, nil)
	pool.Persist(a, 1, nil)

	tx, _ := h.Begin(ctx)
	tx.Write(a, 42)
	// Crash before commit (everything persisted except the commit).
	pool.Persist(a, 1, nil) // even a flushed uncommitted write must roll back

	h2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := h2.Recover(ctx); n != 1 {
		t.Fatalf("Recover rolled back %d txs, want 1", n)
	}
	if pool.Load(a, nil) != 7 {
		t.Fatalf("value = %d, want rolled-back 7", pool.Load(a, nil))
	}
	// Recovered log is reusable.
	if _, err := h2.Begin(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMidTxThenRecover(t *testing.T) {
	var (
		h    *Heap
		pool *pmem.Pool
		a    uint64
	)
	ctx := ctxN(0)
	crashstep.Run(t, crashstep.Scenario{
		At: []int64{5, 15, 40, 90},
		Setup: func(t *testing.T) []*pmem.Pool {
			h, pool = newHeap(t, DefaultConfig())
			a, _ = h.Alloc(ctx, 8)
			for w := uint64(0); w < 4; w++ {
				pool.Store(a+w, 100+w, nil)
			}
			pool.Persist(a, 4, nil)
			return []*pmem.Pool{pool}
		},
		Op: func(t *testing.T) {
			tx, err := h.Begin(ctx)
			if err != nil {
				return
			}
			for w := uint64(0); w < 4; w++ {
				if err := tx.Write(a+w, 200+w); err != nil {
					tx.Abort()
					return
				}
			}
			tx.Commit()
		},
		Recover: func(t *testing.T) {
			h2, err := Attach(pool, 0)
			if err != nil {
				t.Fatal(err)
			}
			h2.Recover(ctx)
		},
		// All-or-nothing: either every word is old or every word is new.
		Check: func(t *testing.T, _ crashstep.Point) {
			oldCnt, newCnt := 0, 0
			for w := uint64(0); w < 4; w++ {
				switch pool.Load(a+w, nil) {
				case 100 + w:
					oldCnt++
				case 200 + w:
					newCnt++
				}
			}
			if oldCnt+newCnt != 4 || (oldCnt != 0 && newCnt != 0) {
				t.Fatalf("torn transaction: old=%d new=%d", oldCnt, newCnt)
			}
		},
	})
}

func TestRootFatPointer(t *testing.T) {
	h, _ := newHeap(t, DefaultConfig())
	ctx := ctxN(0)
	if !h.Root(ctx).IsNull() {
		t.Fatal("fresh heap root not null")
	}
	h.SetRoot(FatPtr{PoolID: 1, Off: 4096})
	p := h.Root(ctx)
	if p.PoolID != 1 || p.Off != 4096 {
		t.Fatalf("root = %+v", p)
	}
}

func TestFatPtrCostsTwoLoads(t *testing.T) {
	h, pool := newHeap(t, DefaultConfig())
	ctx := ctxN(0)
	a, _ := h.Alloc(ctx, 8)
	// The test owns ctx: it publishes the ledger before each reading.
	loads := func() uint64 {
		ctx.Mem.Publish()
		return pool.Stats().Snapshot().Loads
	}
	before := loads()
	h.ReadFat(ctx, a)
	after := loads()
	if after-before != 2 {
		t.Fatalf("fat pointer read cost %d loads, want 2", after-before)
	}
}
