package skiplist

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// env bundles a complete single-pool stack: pmem, riv, epoch, alloc,
// skiplist.
type env struct {
	pool  *pmem.Pool
	pa    *alloc.PoolAllocator
	space *riv.Space
	clock *epoch.Clock
	a     *alloc.Allocator
	sl    *SkipList
}

func newEnv(t testing.TB, cfg Config) *env { return newEnvChunks(t, cfg, 512) }

// newEnvChunks is newEnv over a pool of maxChunks chunks: tests that
// build hundreds of environments keep each one small.
func newEnvChunks(t testing.TB, cfg Config, maxChunks uint64) *env {
	t.Helper()
	acfg := alloc.Config{
		ChunkWords: 16 * 1024,
		MaxChunks:  maxChunks,
		BlockWords: BlockWordsFor(cfg),
		NumArenas:  2,
		NumLogs:    64,
		RootWords:  64,
	}
	pool, err := pmem.NewPool(pmem.Config{ID: 0, Words: alloc.MinPoolWords(acfg, acfg.MaxChunks), HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := alloc.Format(pool, acfg)
	if err != nil {
		t.Fatal(err)
	}
	space := riv.NewSpace()
	space.AddPool(pool)
	clock := epoch.Attach(pool, alloc.EpochOff)
	clock.InitIfZero()
	a := alloc.New(space, clock)
	a.AttachPool(pa, -1)
	sl, err := Create(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{pool: pool, pa: pa, space: space, clock: clock, a: a, sl: sl}
}

// reopen simulates a restart: new space/clock/allocator/handle over the
// same pool, with the epoch advanced (crash boundary).
func (e *env) reopen(t testing.TB) *env {
	t.Helper()
	space := riv.NewSpace()
	space.AddPool(e.pool)
	clock := epoch.Attach(e.pool, alloc.EpochOff)
	clock.Advance()
	pa, err := alloc.Attach(e.pool)
	if err != nil {
		t.Fatal(err)
	}
	a := alloc.New(space, clock)
	a.AttachPool(pa, -1)
	sl, err := Open(a)
	if err != nil {
		t.Fatal(err)
	}
	return &env{pool: e.pool, pa: pa, space: space, clock: clock, a: a, sl: sl}
}

func ctx0() *exec.Ctx { return exec.NewCtx(0, 0) }

func TestCreateOpenRoundTrip(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	sl2, err := Open(e.a)
	if err != nil {
		t.Fatal(err)
	}
	got := sl2.Config()
	if got.MaxHeight != 8 || got.KeysPerNode != 4 {
		t.Fatalf("config after open = %+v", got)
	}
	if sl2.Head() != e.sl.Head() || sl2.Tail() != e.sl.Tail() {
		t.Fatal("sentinels differ after open")
	}
}

func TestOpenUnformatted(t *testing.T) {
	cfg := Config{MaxHeight: 8, KeysPerNode: 4}
	acfg := alloc.DefaultConfig(BlockWordsFor(cfg))
	pool, _ := pmem.NewPool(pmem.Config{ID: 0, Words: alloc.MinPoolWords(acfg, 8), HomeNode: -1})
	pa, err := alloc.Format(pool, acfg)
	if err != nil {
		t.Fatal(err)
	}
	space := riv.NewSpace()
	space.AddPool(pool)
	clock := epoch.Attach(pool, alloc.EpochOff)
	clock.InitIfZero()
	a := alloc.New(space, clock)
	a.AttachPool(pa, -1)
	if _, err := Open(a); err == nil {
		t.Fatal("Open succeeded on pool without a skip list root")
	}
}

func TestCreateRejectsBadConfig(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	if _, err := Create(e.a, Config{MaxHeight: 0, KeysPerNode: 4}); err == nil {
		t.Fatal("accepted zero height")
	}
	if _, err := Create(e.a, Config{MaxHeight: 64, KeysPerNode: 4}); err == nil {
		t.Fatal("accepted oversized height")
	}
	// Block too small for a bigger config.
	if _, err := Create(e.a, Config{MaxHeight: 8, KeysPerNode: 4000}); err == nil {
		t.Fatal("accepted config larger than block size")
	}
}

func TestInsertGetSingle(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	old, existed, err := e.sl.Insert(ctx, 42, 1000)
	if err != nil || existed || old != 0 {
		t.Fatalf("fresh insert: old=%d existed=%v err=%v", old, existed, err)
	}
	v, ok := e.sl.Get(ctx, 42)
	if !ok || v != 1000 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if _, ok := e.sl.Get(ctx, 43); ok {
		t.Fatal("found missing key")
	}
	// The failure-report helper names the covering node and the slot.
	if d := e.sl.DescribeKey(ctx, 42); !strings.Contains(d, "key0 42") || !strings.Contains(d, "slot 0 value word 0x3e8") {
		t.Fatalf("DescribeKey(42) = %q", d)
	}
	for _, k := range []uint64{7, 43} { // before the first node, and absent from the last
		if d := e.sl.DescribeKey(ctx, k); !strings.Contains(d, "no slot holds the key") {
			t.Fatalf("DescribeKey(%d) = %q", k, d)
		}
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	e.sl.Insert(ctx, 7, 100)
	old, existed, err := e.sl.Insert(ctx, 7, 200)
	if err != nil || !existed || old != 100 {
		t.Fatalf("update: old=%d existed=%v err=%v", old, existed, err)
	}
	if v, _ := e.sl.Get(ctx, 7); v != 200 {
		t.Fatalf("value after update = %d", v)
	}
}

func TestKeyAndValueRangeValidation(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	if _, _, err := e.sl.Insert(ctx, 0, 1); err == nil {
		t.Fatal("accepted key 0")
	}
	if _, _, err := e.sl.Insert(ctx, ^uint64(0), 1); err == nil {
		t.Fatal("accepted key MaxUint64")
	}
	if _, _, err := e.sl.Insert(ctx, 5, Tombstone); err == nil {
		t.Fatal("accepted tombstone value")
	}
	if _, ok := e.sl.Get(ctx, 0); ok {
		t.Fatal("Get(0) found something")
	}
	if _, _, err := e.sl.Remove(ctx, 0); err == nil {
		t.Fatal("Remove accepted key 0")
	}
}

func TestRemoveTombstones(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	e.sl.Insert(ctx, 10, 1)
	old, existed, err := e.sl.Remove(ctx, 10)
	if err != nil || !existed || old != 1 {
		t.Fatalf("remove: old=%d existed=%v err=%v", old, existed, err)
	}
	if _, ok := e.sl.Get(ctx, 10); ok {
		t.Fatal("removed key still visible")
	}
	// Double remove reports absent.
	if _, existed, _ := e.sl.Remove(ctx, 10); existed {
		t.Fatal("double remove reported present")
	}
	// Reinsert resurrects.
	old, existed, _ = e.sl.Insert(ctx, 10, 2)
	if existed {
		t.Fatalf("reinsert after remove reported existed (old=%d)", old)
	}
	if v, ok := e.sl.Get(ctx, 10); !ok || v != 2 {
		t.Fatalf("reinserted value = %d,%v", v, ok)
	}
}

func TestRemoveMissing(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	if _, existed, err := e.sl.Remove(ctx0(), 999); existed || err != nil {
		t.Fatal("remove of missing key misbehaved")
	}
}

func TestManyInsertsAndSplits(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 4})
	ctx := ctx0()
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		k := uint64(i + 1)
		if _, _, err := e.sl.Insert(ctx, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		v, ok := e.sl.Get(ctx, uint64(i))
		if !ok || v != uint64(i)*10 {
			t.Fatalf("key %d: got %d,%v", i, v, ok)
		}
	}
	if c := e.sl.Count(ctx); c != n {
		t.Fatalf("Count = %d, want %d", c, n)
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.sl.Stats(ctx)
	if st.Nodes < n/4 {
		t.Fatalf("only %d nodes for %d keys with K=4", st.Nodes, n)
	}
}

// A split works out of the context's scratch buffers: once they have
// reached their working size, inserting into a list — splits, tower links
// and all — allocates nothing from the Go heap. (No garbage collection
// runs under a store whose heap is dominated by its pools, so garbage per
// split was a fresh heap page, and a host page fault, every few splits.)
func TestInsertWithSplitsAllocatesNothing(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 16})
	ctx := ctx0()
	next := uint64(1)
	insert := func() {
		for i := 0; i < 64; i++ { // ascending: a split every eighth insert
			if _, _, err := e.sl.Insert(ctx, next, next); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	insert() // warm the tower and block free lists
	before := e.sl.Stats(ctx).Nodes
	if n := testing.AllocsPerRun(20, insert); n != 0 {
		t.Fatalf("%v allocations per 64 inserts, want 0", n)
	}
	if after := e.sl.Stats(ctx).Nodes; after < before+100 {
		t.Fatalf("%d -> %d nodes: the measured inserts did not split", before, after)
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSingleKeyPerNodeMode(t *testing.T) {
	// K=1 reproduces a classic skip list (Figure 5.3's configuration).
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 1})
	ctx := ctx0()
	for i := 1; i <= 500; i++ {
		e.sl.Insert(ctx, uint64(i), uint64(i))
	}
	for i := 1; i <= 500; i++ {
		if v, ok := e.sl.Get(ctx, uint64(i)); !ok || v != uint64(i) {
			t.Fatalf("key %d missing (v=%d ok=%v)", i, v, ok)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.sl.Stats(ctx)
	if st.Nodes != 500 {
		t.Fatalf("nodes = %d, want 500 in K=1 mode", st.Nodes)
	}
}

// TestOldImageSortedNodesRead: a list written with sorted-on-split
// nodes, which no revision writes any more, set bit 0 of the root's
// word 5 and kept a sorted-prefix length in bits 8-23 of each node's
// meta word. Reopened, such a list is read on the one path: every key
// is found, later inserts split the old nodes, and the invariants hold.
func TestOldImageSortedNodesRead(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 8})
	ctx := ctx0()
	const n = 1500
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		e.sl.Insert(ctx, uint64(2*i+1), uint64(2*i+1)) // odd keys
	}
	e.sl.rootPool.Store(e.sl.rootOff+5, 1, nil)
	marked := 0
	for p := e.sl.head; p != e.sl.tail; p = e.sl.node(p).next(e.sl, 0, nil) {
		cur := e.sl.node(p)
		m := cur.meta(nil)
		cur.pool.Store(cur.off+offMeta, m|uint64(marked%0xffff+1)<<8, nil)
		marked++
	}
	e2 := e.reopen(t)
	ctx = ctx0()
	for i := 2; i <= 2*n; i += 2 { // even keys split the marked nodes
		e2.sl.Insert(ctx, uint64(i), uint64(i))
	}
	for i := 1; i <= 2*n; i++ {
		if v, ok := e2.sl.Get(ctx, uint64(i)); !ok || v != uint64(i) {
			t.Fatalf("key %d: %d,%v", i, v, ok)
		}
	}
	if err := e2.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for i := 1; i <= 100; i++ {
		e.sl.Insert(ctx, uint64(i), uint64(i*2))
	}
	e.sl.Remove(ctx, 50)
	var keys []uint64
	err := e.sl.Scan(ctx, 40, 60, func(k, v uint64) bool {
		if v != k*2 {
			t.Fatalf("scan value mismatch: %d -> %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 20 { // 40..60 inclusive minus removed 50
		t.Fatalf("scan returned %d keys: %v", len(keys), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("scan out of order")
		}
	}
	for _, k := range keys {
		if k == 50 {
			t.Fatal("scan returned removed key")
		}
	}
}

func TestScanEarlyStopAndEmptyRange(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for i := 1; i <= 50; i++ {
		e.sl.Insert(ctx, uint64(i), uint64(i))
	}
	count := 0
	e.sl.Scan(ctx, 1, 50, func(k, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop after %d", count)
	}
	count = 0
	e.sl.Scan(ctx, 60, 70, func(k, v uint64) bool { count++; return true })
	if count != 0 {
		t.Fatal("empty range returned keys")
	}
	if err := e.sl.Scan(ctx, 10, 5, func(k, v uint64) bool { t.Fatal("hi<lo"); return false }); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertDisjoint(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 14, KeysPerNode: 8})
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := exec.NewCtx(id, 0)
			for i := 0; i < per; i++ {
				k := uint64(id*per + i + 1)
				if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ctx := ctx0()
	if c := e.sl.Count(ctx); c != workers*per {
		t.Fatalf("count = %d, want %d", c, workers*per)
	}
	for k := uint64(1); k <= workers*per; k++ {
		if v, ok := e.sl.Get(ctx, k); !ok || v != k {
			t.Fatalf("key %d: %d,%v", k, v, ok)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUpsertSameKeys(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 8})
	const workers, keys, rounds = 8, 50, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := exec.NewCtx(id, 0)
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < rounds; i++ {
				k := uint64(rng.Intn(keys) + 1)
				if _, _, err := e.sl.Insert(ctx, k, uint64(id*rounds+i+1)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ctx := ctx0()
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	if c := e.sl.Count(ctx); c > keys {
		t.Fatalf("count = %d, max %d distinct keys", c, keys)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 4})
	const workers, rounds, keyspace = 8, 400, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := exec.NewCtx(id, 0)
			rng := rand.New(rand.NewSource(int64(id) + 100))
			for i := 0; i < rounds; i++ {
				k := uint64(rng.Intn(keyspace) + 1)
				switch rng.Intn(3) {
				case 0:
					e.sl.Insert(ctx, k, k*7)
				case 1:
					e.sl.Get(ctx, k)
				default:
					e.sl.Remove(ctx, k)
				}
			}
		}(w)
	}
	wg.Wait()
	ctx := ctx0()
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	// Any present value must be k*7.
	e.sl.Scan(ctx, 1, keyspace, func(k, v uint64) bool {
		if v != k*7 {
			t.Fatalf("key %d has value %d", k, v)
		}
		return true
	})
}

// TestModelEquivalenceRandomOps drives the skip list and a map model with
// the same single-threaded op sequence and compares observable behaviour.
func TestModelEquivalenceRandomOps(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8000; i++ {
		k := uint64(rng.Intn(300) + 1)
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Uint64() >> 1
			old, existed, err := e.sl.Insert(ctx, k, v)
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if existed != mok || (mok && old != mv) {
				t.Fatalf("op %d insert(%d): old=%d existed=%v, model %d,%v", i, k, old, existed, mv, mok)
			}
			model[k] = v
		case 2:
			v, ok := e.sl.Get(ctx, k)
			mv, mok := model[k]
			if ok != mok || (ok && v != mv) {
				t.Fatalf("op %d get(%d): %d,%v model %d,%v", i, k, v, ok, mv, mok)
			}
		default:
			old, existed, err := e.sl.Remove(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			mv, mok := model[k]
			if existed != mok || (mok && old != mv) {
				t.Fatalf("op %d remove(%d): %d,%v model %d,%v", i, k, old, existed, mv, mok)
			}
			delete(model, k)
		}
	}
	if c := e.sl.Count(ctx); c != len(model) {
		t.Fatalf("count %d, model %d", c, len(model))
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestReopenPreservesData(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for i := 1; i <= 300; i++ {
		e.sl.Insert(ctx, uint64(i), uint64(i+1000))
	}
	e2 := e.reopen(t)
	for i := 1; i <= 300; i++ {
		if v, ok := e2.sl.Get(ctx, uint64(i)); !ok || v != uint64(i+1000) {
			t.Fatalf("after reopen key %d: %d,%v", i, v, ok)
		}
	}
	if err := e2.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	// And it stays writable.
	e2.sl.Insert(ctx, 1000, 1)
	if v, ok := e2.sl.Get(ctx, 1000); !ok || v != 1 {
		t.Fatalf("post-reopen insert lost: %d,%v", v, ok)
	}
}

func TestRecoveryStatsExposed(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for i := 1; i <= 100; i++ {
		e.sl.Insert(ctx, uint64(i), uint64(i))
	}
	e2 := e.reopen(t)
	// Touch everything: every node is stale and gets claimed lazily.
	for i := 1; i <= 100; i++ {
		e2.sl.Get(ctx, uint64(i))
	}
	if e2.sl.RecoveryStats().Claims == 0 {
		t.Fatal("no epoch claims after reopen+reads")
	}
}

// TestHeaderLineLayout pins what a header read relies on: the header
// words and next[0..1] fit one line, every node block (head and tail
// included) starts on a line boundary so they are one line, the
// ascending read takes the split count before key0 and the next words,
// and the read is charged as one load.
func TestHeaderLineLayout(t *testing.T) {
	if !(offEpoch < offSplitCount && offSplitCount < offKey0 && offKey0 < offNext) {
		t.Fatalf("header order: epoch %d, split count %d, key0 %d, next %d", offEpoch, offSplitCount, offKey0, offNext)
	}
	if offNext+2 > pmem.LineWords {
		t.Fatalf("next[0..1] end at word %d, past the %d-word header line", offNext+2, pmem.LineWords)
	}
	e := newEnv(t, DefaultConfig())
	ctx := ctx0()
	for k := uint64(1); k <= 2000; k++ {
		if _, _, err := e.sl.Insert(ctx, k*7919%100003, k); err != nil {
			t.Fatal(err)
		}
	}
	nodes := 0
	for p := e.sl.head; ; {
		n := e.sl.node(p)
		if n.off%pmem.LineWords != 0 {
			t.Fatalf("node %v starts at word %d, not on a line boundary", p, n.off)
		}
		nodes++
		if p == e.sl.tail {
			break
		}
		ctx.Mem.Publish()
		before := e.pool.Stats().Snapshot().Loads
		h := n.header(ctx.Mem)
		ctx.Mem.Publish()
		if loads := e.pool.Stats().Snapshot().Loads - before; loads != 1 {
			t.Fatalf("a header read counted %d loads, want 1", loads)
		}
		if got := n.key0(e.sl, nil); h.key0() != got {
			t.Fatalf("header key0 %d, key0 %d", h.key0(), got)
		}
		p = riv.FromWord(h[offNext] &^ nextMark)
	}
	if nodes < 100 {
		t.Fatalf("walked %d nodes; the list did not split", nodes)
	}
}
