package alloc

import (
	"errors"
	"sync"
	"testing"

	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// testEnv bundles a single formatted pool with its space, clock and
// allocator.
type testEnv struct {
	pool  *pmem.Pool
	pa    *PoolAllocator
	space *riv.Space
	clock *epoch.Clock
	a     *Allocator
}

func smallConfig() Config {
	return Config{
		ChunkWords: 512,
		MaxChunks:  64,
		BlockWords: 32,
		NumArenas:  2,
		NumLogs:    16,
		RootWords:  64,
	}
}

func newEnv(t testing.TB, cfg Config) *testEnv {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Config{ID: 0, Words: MinPoolWords(cfg, cfg.MaxChunks), HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Format(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	space := riv.NewSpace()
	space.AddPool(pool)
	clock := epoch.Attach(pool, EpochOff)
	clock.InitIfZero()
	a := New(space, clock)
	a.AttachPool(pa, -1)
	return &testEnv{pool: pool, pa: pa, space: space, clock: clock, a: a}
}

func ctxFor(id int) *exec.Ctx { return exec.NewCtx(id, 0) }

func TestFormatAttachRoundTrip(t *testing.T) {
	env := newEnv(t, smallConfig())
	pa2, err := Attach(env.pool)
	if err != nil {
		t.Fatal(err)
	}
	if pa2.Config().ChunkWords != 512 || pa2.Config().NumArenas != 2 {
		t.Fatalf("config mismatch after attach: %+v", pa2.Config())
	}
	if pa2.RootOff() != env.pa.RootOff() {
		t.Fatal("root offset mismatch")
	}
}

func TestAttachUnformattedFails(t *testing.T) {
	pool, _ := pmem.NewPool(pmem.Config{Words: 4096, HomeNode: -1})
	if _, err := Attach(pool); err == nil {
		t.Fatal("attach of unformatted pool succeeded")
	}
}

// TestAttachRejectsForgedLayout forges one header word of a formatted
// pool at a time. Attach must refuse, with ErrBadConfig, any header
// whose arenas, logs, root area and provisioned chunks do not fit the
// pool, or whose chunk count exceeds its MaxChunks; before, it accepted
// them and recovery indexed past the end of the pool.
func TestAttachRejectsForgedLayout(t *testing.T) {
	cfg := smallConfig()
	for _, tc := range []struct {
		name  string
		word  uint64
		value uint64
	}{
		{"arenas", hdrNumArenas, 1 << 40},
		{"logs", hdrNumLogs, 1 << 40},
		{"root", hdrRootWords, 1 << 40},
		{"chunks over MaxChunks", hdrChunkCount, 60000},
		{"chunks past the pool", hdrChunkCount, 40}, // MaxChunks is 64, the pool holds 16
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := pmem.NewPool(pmem.Config{Words: MinPoolWords(cfg, 16), HomeNode: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Format(pool, cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := Attach(pool); err != nil {
				t.Fatalf("attach before forging: %v", err)
			}
			pool.Store(tc.word, tc.value, nil)
			if _, err := Attach(pool); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("header word %d = %d: err = %v, want ErrBadConfig", tc.word, tc.value, err)
			}
		})
	}
}

func TestFormatTooSmallPool(t *testing.T) {
	cfg := smallConfig()
	pool, _ := pmem.NewPool(pmem.Config{Words: 256, HomeNode: -1})
	if _, err := Format(pool, cfg); err == nil {
		t.Fatal("format of undersized pool succeeded")
	}
}

func TestFormatBadConfig(t *testing.T) {
	pool, _ := pmem.NewPool(pmem.Config{Words: 1 << 16, HomeNode: -1})
	bad := smallConfig()
	bad.NumArenas = 0
	if _, err := Format(pool, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestAllocReturnsDistinctLiveBlocks(t *testing.T) {
	env := newEnv(t, smallConfig())
	ctx := ctxFor(0)
	seen := map[riv.Ptr]bool{}
	for i := 0; i < 20; i++ {
		b, err := env.a.Alloc(ctx, riv.Null, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			t.Fatalf("block %v allocated twice", b)
		}
		seen[b] = true
		pool, off := env.space.Resolve(b)
		if pool.Load(off+BlockKind, nil) != KindNode {
			t.Fatal("allocated block not marked live")
		}
		if pool.Load(off+BlockEpoch, nil) != env.clock.Current() {
			t.Fatal("allocated block not stamped with current epoch")
		}
	}
}

func TestAllocGrowsByChunk(t *testing.T) {
	cfg := smallConfig()
	env := newEnv(t, cfg)
	ctx := ctxFor(0)
	perChunk := int(cfg.ChunkWords / cfg.BlockWords)
	before := env.pool.Load(hdrChunkCount, nil)
	// Drain well past the seeded chunks.
	for i := 0; i < perChunk*3; i++ {
		if _, err := env.a.Alloc(ctx, riv.Null, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	after := env.pool.Load(hdrChunkCount, nil)
	if after <= before {
		t.Fatalf("chunk count did not grow: %d -> %d", before, after)
	}
}

func TestAllocExhaustion(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxChunks = 2 // both consumed by the two seeded arenas
	env := newEnv(t, cfg)
	ctx := ctxFor(0)
	var err error
	for i := 0; i < 1000; i++ {
		_, err = env.a.Alloc(ctx, riv.Null, uint64(i+1))
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestFreeRecyclesBlocks(t *testing.T) {
	env := newEnv(t, smallConfig())
	ctx := ctxFor(0)
	b, err := env.a.Alloc(ctx, riv.Null, 1)
	if err != nil {
		t.Fatal(err)
	}
	env.a.Free(ctx, b)
	pool, off := env.space.Resolve(b)
	if pool.Load(off+BlockKind, nil) != KindFree {
		t.Fatal("freed block not marked free")
	}
	// The freed block must eventually be reallocated: drain the arena.
	cfg := env.pa.Config()
	total := int(cfg.MaxChunks) * int(cfg.ChunkWords/cfg.BlockWords)
	found := false
	for i := 0; i < total; i++ {
		nb, err := env.a.Alloc(ctx, riv.Null, uint64(i+2))
		if err != nil {
			break
		}
		if nb == b {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("freed block never reallocated")
	}
}

func TestFreeIdempotentOnFreeBlock(t *testing.T) {
	env := newEnv(t, smallConfig())
	ctx := ctxFor(0)
	b, _ := env.a.Alloc(ctx, riv.Null, 1)
	env.a.Free(ctx, b)
	len1 := env.a.FreeListLen(env.pa, 0)
	env.a.Free(ctx, b) // recovery-of-recovery: must not double-link
	len2 := env.a.FreeListLen(env.pa, 0)
	if len1 != len2 {
		t.Fatalf("double free changed list length: %d -> %d", len1, len2)
	}
}

func TestFreeListNeverEmpty(t *testing.T) {
	env := newEnv(t, smallConfig())
	for a := 0; a < env.pa.Config().NumArenas; a++ {
		if n := env.a.FreeListLen(env.pa, a); n < 1 {
			t.Fatalf("arena %d free list length %d", a, n)
		}
	}
}

func TestArenaSelectionByThread(t *testing.T) {
	env := newEnv(t, smallConfig())
	// Thread 0 -> arena 0, thread 1 -> arena 1.
	before0 := env.a.FreeListLen(env.pa, 0)
	before1 := env.a.FreeListLen(env.pa, 1)
	if _, err := env.a.Alloc(ctxFor(0), riv.Null, 1); err != nil {
		t.Fatal(err)
	}
	after0 := env.a.FreeListLen(env.pa, 0)
	after1 := env.a.FreeListLen(env.pa, 1)
	if after0 != before0-1 || after1 != before1 {
		t.Fatalf("allocation did not come from arena 0: %d->%d, %d->%d",
			before0, after0, before1, after1)
	}
}

func TestConcurrentAllocNoDuplicates(t *testing.T) {
	cfg := smallConfig()
	cfg.ChunkWords = 4096
	cfg.MaxChunks = 128
	env := newEnv(t, cfg)
	const workers, per = 8, 300
	results := make([][]riv.Ptr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := ctxFor(id)
			for i := 0; i < per; i++ {
				b, err := env.a.Alloc(ctx, riv.Null, uint64(id*per+i+1))
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				results[id] = append(results[id], b)
			}
		}(w)
	}
	wg.Wait()
	seen := map[riv.Ptr]bool{}
	for _, rs := range results {
		for _, b := range rs {
			if seen[b] {
				t.Fatalf("block %v allocated to two workers", b)
			}
			seen[b] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("allocated %d blocks, want %d", len(seen), workers*per)
	}
}

func TestConcurrentAllocFreeChurn(t *testing.T) {
	cfg := smallConfig()
	cfg.ChunkWords = 2048
	env := newEnv(t, cfg)
	const workers, rounds = 6, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := ctxFor(id)
			var held []riv.Ptr
			for i := 0; i < rounds; i++ {
				b, err := env.a.Alloc(ctx, riv.Null, uint64(i+1))
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				held = append(held, b)
				if len(held) > 4 {
					env.a.Free(ctx, held[0])
					held = held[1:]
				}
			}
			for _, b := range held {
				env.a.Free(ctx, b)
			}
		}(w)
	}
	wg.Wait()
	// After churn, everything freed: total free blocks should equal the
	// total blocks of all allocated chunks.
	totalFree := 0
	for a := 0; a < cfg.NumArenas; a++ {
		totalFree += env.a.FreeListLen(env.pa, a)
	}
	chunks := env.pool.Load(hdrChunkCount, nil)
	want := int(chunks) * int(cfg.ChunkWords/cfg.BlockWords)
	if totalFree != want {
		t.Fatalf("free blocks = %d, want %d (chunks=%d)", totalFree, want, chunks)
	}
}

// TestDeferredLogRecoveryReclaimsUnreachable simulates the Function 3
// scenario: a thread logs an allocation, the block is popped and
// persisted, the system crashes before the block becomes reachable, and
// the same thread's next allocation in the new epoch reclaims it.
func TestDeferredLogRecoveryReclaimsUnreachable(t *testing.T) {
	env := newEnv(t, smallConfig())
	ctx := ctxFor(3)

	reachable := map[riv.Ptr]bool{}
	env.a.SetReachabilityCheck(func(_ *exec.Ctx, _ riv.Ptr, _ uint64, block riv.Ptr) bool {
		return reachable[block]
	})

	lost, err := env.a.Alloc(ctx, riv.Null, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Crash: epoch advances; the block was never linked into the
	// structure. (Everything was persisted here, so no pmem tracking is
	// needed for this scenario.)
	env.clock.Advance()

	freeBefore := env.a.FreeListLen(env.pa, ctx.ThreadID%env.pa.Config().NumArenas)
	if _, err := env.a.Alloc(ctx, riv.Null, 43); err != nil {
		t.Fatal(err)
	}
	freeAfter := env.a.FreeListLen(env.pa, ctx.ThreadID%env.pa.Config().NumArenas)
	// Net effect: one block allocated (-1) and the lost block reclaimed
	// (+1) => same length.
	if freeAfter != freeBefore {
		t.Fatalf("free list %d -> %d, want unchanged (reclaim offsets alloc)", freeBefore, freeAfter)
	}
	pool, off := env.space.Resolve(lost)
	if pool.Load(off+BlockKind, nil) != KindFree {
		t.Fatal("lost block was not reclaimed")
	}
}

// TestDeferredLogRecoveryKeepsReachable verifies a logged block that DID
// become reachable is not stolen back.
func TestDeferredLogRecoveryKeepsReachable(t *testing.T) {
	env := newEnv(t, smallConfig())
	ctx := ctxFor(3)
	env.a.SetReachabilityCheck(func(_ *exec.Ctx, _ riv.Ptr, _ uint64, _ riv.Ptr) bool {
		return true // everything reachable
	})
	kept, err := env.a.Alloc(ctx, riv.Null, 42)
	if err != nil {
		t.Fatal(err)
	}
	env.clock.Advance()
	if _, err := env.a.Alloc(ctx, riv.Null, 43); err != nil {
		t.Fatal(err)
	}
	pool, off := env.space.Resolve(kept)
	if pool.Load(off+BlockKind, nil) != KindNode {
		t.Fatal("reachable block was reclaimed")
	}
}

// TestDeferredLogRecoverySkipsReallocated verifies the guard against
// freeing a block that another thread reallocated in the new epoch.
func TestDeferredLogRecoverySkipsReallocated(t *testing.T) {
	env := newEnv(t, smallConfig())
	victim := ctxFor(5)
	env.a.SetReachabilityCheck(func(_ *exec.Ctx, _ riv.Ptr, _ uint64, _ riv.Ptr) bool {
		return false
	})
	b, err := env.a.Alloc(victim, riv.Null, 42)
	if err != nil {
		t.Fatal(err)
	}
	env.clock.Advance()
	// Another thread reclaims and reallocates the block in the new epoch
	// (simulated by freeing + re-stamping with the current epoch).
	pool, off := env.space.Resolve(b)
	pool.Store(off+BlockEpoch, env.clock.Current(), nil)
	// Victim's next allocation must not free b: it is stamped current.
	if _, err := env.a.Alloc(victim, riv.Null, 43); err != nil {
		t.Fatal(err)
	}
	if pool.Load(off+BlockKind, nil) != KindNode {
		t.Fatal("current-epoch block was reclaimed by stale log")
	}
}

func TestLogSameEpochNoRecovery(t *testing.T) {
	env := newEnv(t, smallConfig())
	ctx := ctxFor(1)
	calls := 0
	env.a.SetReachabilityCheck(func(_ *exec.Ctx, _ riv.Ptr, _ uint64, _ riv.Ptr) bool {
		calls++
		return false
	})
	for i := 0; i < 5; i++ {
		if _, err := env.a.Alloc(ctx, riv.Null, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 0 {
		t.Fatalf("reachability checked %d times within one epoch, want 0", calls)
	}
}

func TestReclaimOrphanChunks(t *testing.T) {
	cfg := smallConfig()
	env := newEnv(t, cfg)
	ctx := ctxFor(0)
	// Fabricate an orphan chunk: claim + build, but never link (as if the
	// crash hit between claimChunk and linkChainAtTail).
	idx, base, err := env.pa.claimChunk()
	if err != nil {
		t.Fatal(err)
	}
	env.pa.buildChunkChain(idx, base, nil)
	env.space.SetChunkBase(0, idx, base)
	env.clock.Advance() // crash boundary

	perChunk := int(cfg.ChunkWords / cfg.BlockWords)
	before := env.a.FreeListLen(env.pa, 0) + env.a.FreeListLen(env.pa, 1)
	n := env.a.ReclaimOrphanChunks(ctx)
	if n != perChunk {
		t.Fatalf("reclaimed %d blocks, want %d", n, perChunk)
	}
	after := env.a.FreeListLen(env.pa, 0) + env.a.FreeListLen(env.pa, 1)
	if after != before+perChunk {
		t.Fatalf("free blocks %d -> %d, want +%d", before, after, perChunk)
	}
	// A second sweep finds nothing.
	if n := env.a.ReclaimOrphanChunks(ctx); n != 0 {
		t.Fatalf("second sweep reclaimed %d blocks", n)
	}
}

func TestMultiPoolAllocationRouting(t *testing.T) {
	cfg := smallConfig()
	space := riv.NewSpace()
	var pas []*PoolAllocator
	for id := uint16(0); id < 2; id++ {
		pool, err := pmem.NewPool(pmem.Config{ID: id, Words: MinPoolWords(cfg, cfg.MaxChunks), HomeNode: int(id)})
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Format(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		space.AddPool(pool)
		pas = append(pas, pa)
	}
	clock := epoch.Attach(pas[0].Pool(), EpochOff)
	clock.InitIfZero()
	a := New(space, clock)
	a.AttachPool(pas[0], 0)
	a.AttachPool(pas[1], 1)

	b0, err := a.Alloc(exec.NewCtx(0, 0), riv.Null, 1)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := a.Alloc(exec.NewCtx(1, 1), riv.Null, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b0.Pool() != 0 || b1.Pool() != 1 {
		t.Fatalf("allocations routed to pools %d and %d, want 0 and 1", b0.Pool(), b1.Pool())
	}
	// Cross-pool free: node-0 thread frees the node-1 block into its own
	// arena; the RIV pointer keeps working across pools.
	a.Free(exec.NewCtx(0, 0), b1)
	pool, off := space.Resolve(b1)
	if pool.Load(off+BlockKind, nil) != KindFree {
		t.Fatal("cross-pool free failed")
	}
}

func TestLazyChunkResolutionAfterReattach(t *testing.T) {
	cfg := smallConfig()
	env := newEnv(t, cfg)
	ctx := ctxFor(0)
	b, err := env.a.Alloc(ctx, riv.Null, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated restart: fresh space/allocator over the same pool image.
	space2 := riv.NewSpace()
	space2.AddPool(env.pool)
	clock2 := epoch.Attach(env.pool, EpochOff)
	clock2.Advance()
	pa2, err := Attach(env.pool)
	if err != nil {
		t.Fatal(err)
	}
	a2 := New(space2, clock2)
	a2.AttachPool(pa2, -1)
	// Resolving the old pointer must work through the lazy resolver.
	pool, off := space2.Resolve(b)
	if pool.Load(off+BlockKind, nil) != KindNode {
		t.Fatal("block not resolvable after reattach")
	}
}

func TestMinPoolWords(t *testing.T) {
	cfg := smallConfig()
	w := MinPoolWords(cfg, 4)
	pool, err := pmem.NewPool(pmem.Config{Words: w, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Format(pool, cfg); err != nil {
		t.Fatalf("pool sized by MinPoolWords does not format: %v", err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	cfg := smallConfig()
	cfg.ChunkWords = 8192
	cfg.MaxChunks = 512
	env := newEnv(b, cfg)
	ctx := ctxFor(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk, err := env.a.Alloc(ctx, riv.Null, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		env.a.Free(ctx, blk)
	}
}

func TestPreallocateMode(t *testing.T) {
	cfg := smallConfig()
	cfg.Preallocate = true
	cfg.MaxChunks = 8
	env := newEnv(t, cfg)
	// Half of the chunks are carved at format time; the rest stay
	// unclaimed for whole-chunk claims.
	if got := env.pool.Load(hdrChunkCount, nil); got != 4 {
		t.Fatalf("chunk count = %d, want 4 (half preallocated)", got)
	}
	perChunk := int(cfg.ChunkWords / cfg.BlockWords)
	total := 0
	for a := 0; a < cfg.NumArenas; a++ {
		total += env.a.FreeListLen(env.pa, a)
	}
	if total != 4*perChunk {
		t.Fatalf("free blocks = %d, want %d", total, 4*perChunk)
	}
	// Allocation drains without provisioning new chunks.
	ctx := ctxFor(0)
	for i := 0; i < perChunk; i++ {
		if _, err := env.a.Alloc(ctx, riv.Null, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := env.pool.Load(hdrChunkCount, nil); got != 4 {
		t.Fatalf("chunk count grew to %d in preallocated mode", got)
	}
	if _, err := env.a.ClaimSlabChunk(ctx, 1); err != nil {
		t.Fatalf("no chunk left to claim whole: %v", err)
	}
	// Reattach still sees the geometry.
	if _, err := Attach(env.pool); err != nil {
		t.Fatal(err)
	}
}
