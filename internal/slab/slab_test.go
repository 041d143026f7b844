package slab

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"upskiplist/internal/alloc"
	"upskiplist/internal/crashstep"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

type testEnv struct {
	pool  *pmem.Pool
	pa    *alloc.PoolAllocator
	space *riv.Space
	clock *epoch.Clock
	a     *alloc.Allocator
	ar    *Arena
	ctx   *exec.Ctx
}

// sweep runs the arena's Sweep and fails t on an error.
func (env *testEnv) sweep(t testing.TB, live func(emit func(uint64))) int {
	t.Helper()
	n, err := env.ar.Sweep(env.ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func smallConfig() alloc.Config {
	return alloc.Config{
		ChunkWords: 2048,
		MaxChunks:  64,
		BlockWords: 128,
		NumArenas:  2,
		NumLogs:    16,
		RootWords:  64,
	}
}

func newEnv(t testing.TB, cfg alloc.Config) *testEnv {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Config{ID: 0, Words: alloc.MinPoolWords(cfg, cfg.MaxChunks), HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := alloc.Format(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	space := riv.NewSpace()
	space.AddPool(pool)
	clock := epoch.Attach(pool, alloc.EpochOff)
	clock.InitIfZero()
	a := alloc.New(space, clock)
	a.AttachPool(pa, -1)
	ctx := exec.NewCtx(0, 0)
	ar, err := Attach(a, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{pool: pool, pa: pa, space: space, clock: clock, a: a, ar: ar, ctx: ctx}
}

// reattach simulates a process restart over the same pool image.
func (env *testEnv) reattach(t testing.TB) *testEnv {
	t.Helper()
	pa, err := alloc.Attach(env.pool)
	if err != nil {
		t.Fatal(err)
	}
	space := riv.NewSpace()
	space.AddPool(env.pool)
	clock := epoch.Attach(env.pool, alloc.EpochOff)
	clock.Advance() // reopen bumps the failure-free epoch
	a := alloc.New(space, clock)
	a.AttachPool(pa, -1)
	ctx := exec.NewCtx(0, 0)
	ar, err := Attach(a, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{pool: env.pool, pa: pa, space: space, clock: clock, a: a, ar: ar, ctx: ctx}
}

// defaultConfig is the geometry DefaultOptions gives a store: 56-word
// blocks (16 keys per node, 16 levels) in 16 Ki-word chunks.
func defaultConfig() alloc.Config {
	return alloc.Config{
		ChunkWords: 1 << 14,
		MaxChunks:  256,
		BlockWords: 56,
		NumArenas:  4,
		NumLogs:    16,
		RootWords:  64,
	}
}

// TestClassGeometry pins the class table's shape under both test
// geometries: ascending sizes, at most a quarter of a chunk unused by the
// value that just misses the class below, every value of up to 4 KiB in
// one chunk, and every page inside one allocator chunk.
func TestClassGeometry(t *testing.T) {
	for _, cfg := range []alloc.Config{smallConfig(), defaultConfig()} {
		env := newEnv(t, cfg)
		classes := env.ar.classes
		if classes[0].words != minClassWords || classes[len(classes)-1].words != maxClassWords {
			t.Fatalf("classes span %d..%d words, want %d..%d", classes[0].words, classes[len(classes)-1].words, minClassWords, maxClassWords)
		}
		if env.ar.MaxSingle() < 4096 {
			t.Fatalf("MaxSingle = %d, want every value <= 4 KiB in one chunk", env.ar.MaxSingle())
		}
		for i, c := range classes {
			if c.perPage < 1 || pageHdrLen+c.perPage*c.words > c.span*cfg.BlockWords {
				t.Fatalf("class %d words: %d chunks do not fit a %d-block page", c.words, c.perPage, c.span)
			}
			if c.span >= cfg.ChunkWords/cfg.BlockWords {
				t.Fatalf("class %d words: %d-block page does not fit a chunk beside its header", c.words, c.span)
			}
			if i == 0 {
				continue
			}
			prev := classes[i-1].words
			if c.words <= prev {
				t.Fatalf("classes not ascending: %d after %d", c.words, prev)
			}
			// Above the power-of-two classes, the worst fit is a value one
			// word too long for the class below.
			if prev >= 32 && (c.words-prev-1)*4 > c.words {
				t.Fatalf("class %d after %d wastes more than a quarter on a %d-word value", c.words, prev, prev+1)
			}
		}
	}
	// The page the 1 KiB arithmetic rests on: the value (129 words with
	// its header) is one 160-word chunk in a 3-block page of the default
	// geometry, and 8-byte values keep their 13 to a block.
	env := newEnv(t, defaultConfig())
	if c := env.ar.classes[env.ar.classFor(1024)]; c.words != 160 || c.span != 3 || c.perPage != 1 {
		t.Fatalf("1 KiB class = %+v, want 160 words, 3 blocks, 1 per page", c)
	}
	if c := env.ar.classes[env.ar.classFor(8)]; c.words != 4 || c.span != 1 || c.perPage != 13 {
		t.Fatalf("8 B class = %+v, want 4 words, 1 block, 13 per page", c)
	}
}

func TestClassRounding(t *testing.T) {
	env := newEnv(t, smallConfig())
	for n := 0; n <= env.ar.MaxSingle(); n++ {
		c := env.ar.classFor(n)
		if c < 0 {
			t.Fatalf("classFor(%d) = -1 inside single-segment range", n)
		}
		if env.ar.classes[c].payloadBytes() < n {
			t.Fatalf("classFor(%d) = %d words, too small", n, env.ar.classes[c].words)
		}
		if c > 0 && env.ar.classes[c-1].payloadBytes() >= n {
			t.Fatalf("classFor(%d) = class %d, but class %d already fits", n, c, c-1)
		}
	}
	if env.ar.classFor(env.ar.MaxSingle()+1) != -1 {
		t.Fatal("oversize length mapped to a single-segment class")
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	env := newEnv(t, smallConfig())
	sizes := []int{0, 1, 7, 8, 9, 15, 16, 24, 100, 500,
		env.ar.MaxSingle(), env.ar.MaxSingle() + 1, 4000, 9000, 3 * env.ar.segCap()}
	refs := make([]Ref, len(sizes))
	for i, n := range sizes {
		ref, err := env.ar.Put(env.ctx, pattern(n, byte(i)), nil)
		if err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		if !env.ar.IsRef(ref.Word()) {
			t.Fatalf("Put(%d bytes) produced non-ref word %#x", n, ref)
		}
		refs[i] = ref
	}
	for i, n := range sizes {
		got := env.ar.Get(refs[i], nil, nil)
		if !bytes.Equal(got, pattern(n, byte(i))) {
			t.Fatalf("Get(ref %d, %d bytes) mismatch", i, n)
		}
	}
}

// TestRoundTripEveryLength stores one value of every length from 0 to
// 4200 bytes, plus a 64 KiB and a 1 MiB chain, and reads each back both
// into a fresh slice and appended to a caller's buffer. Up to 4096 bytes
// nothing may chain, and every chunk — header and payload — must lie
// inside one page of one extent.
func TestRoundTripEveryLength(t *testing.T) {
	cfg := defaultConfig()
	cfg.MaxChunks = 512
	env := newEnv(t, cfg)
	lengths := []int{64 << 10, 1 << 20}
	for n := 0; n <= 4200; n++ {
		lengths = append(lengths, n)
	}
	refs := make([]Ref, len(lengths))
	for i, n := range lengths {
		ref, err := env.ar.Put(env.ctx, pattern(n, byte(i)), nil)
		if err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		if ref.Chained() != (n > env.ar.MaxSingle()) || (n <= 4096 && ref.Chained()) {
			t.Fatalf("Put(%d bytes): chained = %v", n, ref.Chained())
		}
		refs[i] = ref
	}
	pages := make(map[uint16][]page)
	for _, ext := range env.ar.extents {
		env.ar.walkPages(ext, nil, func(pg page) { pages[ext.ptr.Chunk()] = append(pages[ext.ptr.Chunk()], pg) })
	}
	// pageOf returns the index of the page covering word w of its extent,
	// or -1.
	pageOf := func(pgs []page, w uint64) int {
		for i, pg := range pgs {
			if lo := uint64(pg.ptr.Offset()); w >= lo && w < lo+env.ar.classes[pg.class].span*cfg.BlockWords {
				return i
			}
		}
		return -1
	}
	buf := make([]byte, 0, 1<<20+8)
	for i, n := range lengths {
		want := pattern(n, byte(i))
		if got := env.ar.Get(refs[i], nil, nil); !bytes.Equal(got, want) {
			t.Fatalf("Get(%d bytes) mismatch", n)
		}
		buf = append(buf[:0], "head"...)
		buf = env.ar.Get(refs[i], buf, env.ctx.Mem)
		if string(buf[:4]) != "head" || !bytes.Equal(buf[4:], want) {
			t.Fatalf("Get(%d bytes) into a caller's buffer mismatch", n)
		}
		if refs[i].Chained() {
			continue
		}
		p := refs[i].ptr()
		pgs, ok := pages[p.Chunk()]
		if !ok {
			t.Fatalf("%d-byte value at %v is in no extent", n, p)
		}
		first := pageOf(pgs, uint64(p.Offset()))
		last := pageOf(pgs, uint64(p.Offset())+uint64((n+7)/8))
		if first < 0 || first != last {
			t.Fatalf("%d-byte value at %v spans pages %d and %d", n, p, first, last)
		}
		if pg := pgs[first]; pg.class != env.ar.classFor(n) {
			t.Fatalf("%d-byte value sits in a page of class %d, want %d", n, pg.class, env.ar.classFor(n))
		}
	}
}

func TestRefNeverTombstoneOrZero(t *testing.T) {
	env := newEnv(t, smallConfig())
	for _, n := range []int{0, 8, 100, 9000} {
		ref, err := env.ar.Put(env.ctx, pattern(n, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Word() == 0 || ref.Word() == ^uint64(0) {
			t.Fatalf("ref for %d-byte value collides with sentinel: %#x", n, ref)
		}
	}
}

func TestFreeListReuse(t *testing.T) {
	env := newEnv(t, smallConfig())
	ref1, err := env.ar.Put(env.ctx, pattern(20, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	env.ar.Retire(ref1)
	env.ar.DrainQuiesced(nil)
	ref2, err := env.ar.Put(env.ctx, pattern(20, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref1.ptr() != ref2.ptr() {
		t.Fatalf("freed chunk not reused: %v then %v", ref1.ptr(), ref2.ptr())
	}
	if got := env.ar.Get(ref2, nil, nil); !bytes.Equal(got, pattern(20, 2)) {
		t.Fatal("reused chunk returned stale bytes")
	}
}

func TestNoOverlap(t *testing.T) {
	env := newEnv(t, smallConfig())
	rng := rand.New(rand.NewSource(42))
	type span struct{ lo, hi uint64 } // absolute word offsets, in-use words
	var spans []span
	vals := make(map[int][]byte)
	var refs []Ref
	for i := 0; i < 200; i++ {
		n := rng.Intn(1200)
		if i%20 == 0 {
			n = env.ar.MaxSingle() + rng.Intn(env.ar.MaxSingle())
		}
		v := pattern(n, byte(i))
		ref, err := env.ar.Put(env.ctx, v, nil)
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		refs = append(refs, ref)
		vals[i] = v
		p := ref.ptr()
		for !p.IsNull() {
			_, off := env.space.Resolve(p)
			pool, o := env.space.Resolve(p)
			hdr := pool.Load(o, nil)
			words := uint64(1 + (int(hdr&hdrLenMask)+7)/8)
			if hdr&hdrChained != 0 {
				seg := min(int(hdr&hdrLenMask), env.ar.segCap())
				words = uint64(2 + (seg+7)/8)
			}
			spans = append(spans, span{off, off + words})
			if hdr&hdrChained != 0 {
				p = riv.FromWord(pool.Load(o+1, nil))
			} else {
				p = riv.Null
			}
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("chunk overlap: [%d,%d) vs [%d,%d)", spans[i].lo, spans[i].hi, spans[j].lo, spans[j].hi)
			}
		}
	}
	// Every value still reads back after all the allocation churn.
	for i, ref := range refs {
		if got := env.ar.Get(ref, nil, nil); !bytes.Equal(got, vals[i]) {
			t.Fatalf("value %d corrupted", i)
		}
	}
}

// crashArena is an arena under crashstep: setup builds it afresh and
// returns its one pool, reattach restarts it over that pool.
type crashArena struct{ *testEnv }

func (c *crashArena) setup(t *testing.T) []*pmem.Pool {
	c.testEnv = newEnv(t, smallConfig())
	return []*pmem.Pool{c.pool}
}

func (c *crashArena) reattach(t *testing.T) { c.testEnv = c.testEnv.reattach(t) }

func (c *crashArena) put(t *testing.T, val []byte) Ref {
	t.Helper()
	ref, err := c.ar.Put(c.ctx, val, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// leakCrash runs op on an arena holding one published value, then
// crashes; op leaves one chunk in use that no node names. The startup
// sweep must relink exactly that chunk, leave the published value
// intact, and hand the chunk out first.
func leakCrash(t *testing.T, op func(t *testing.T, env *crashArena) Ref) {
	env := &crashArena{}
	var keep, leaked Ref
	crashstep.Run(t, crashstep.Scenario{
		Setup: func(t *testing.T) []*pmem.Pool {
			pools := env.setup(t)
			keep = env.put(t, pattern(40, 9))
			return pools
		},
		Op:      func(t *testing.T) { leaked = op(t, env) },
		Recover: env.reattach,
		Check: func(t *testing.T, _ crashstep.Point) {
			relinked := env.sweep(t, func(emit func(uint64)) {
				emit(keep.Word())
			})
			if relinked != 1 {
				t.Fatalf("sweep relinked %d chunks, want 1", relinked)
			}
			if got := env.ar.Get(keep, nil, nil); !bytes.Equal(got, pattern(40, 9)) {
				t.Fatal("live value damaged by sweep")
			}
			if again := env.put(t, pattern(40, 6)); again.ptr() != leaked.ptr() {
				t.Fatalf("leaked chunk %v not reused, got %v", leaked.ptr(), again.ptr())
			}
		},
	})
}

// TestCrashLeakSweep simulates the torn-publish crash: a value is
// written and persisted but the node word naming it never lands
// (leakCrash).
func TestCrashLeakSweep(t *testing.T) {
	leakCrash(t, func(t *testing.T, env *crashArena) Ref { return env.put(t, pattern(40, 5)) })
}

// TestCrashMidPush covers the free-side leak window: push persists
// nothing (the free lists are volatile), so a crash right after a
// retired chunk was pushed reverts the zero it stored into the chunk's
// header. The chunk then looks used but no node references it — exactly
// the shape of a leaked allocation (leakCrash).
func TestCrashMidPush(t *testing.T) {
	leakCrash(t, func(t *testing.T, env *crashArena) Ref {
		ref := env.put(t, pattern(40, 5))
		env.ar.Retire(ref)
		env.ar.DrainQuiesced(nil)
		return ref
	})
}

// TestCrashMidGrow crashes a Put at every pmem step of a grow that also
// claims a fresh allocator chunk. Whatever the crash left — an unclaimed
// chunk, a claimed one with no page, a page beyond the cursor, a page
// below it whose chunks are on no list — the reattached arena must sweep
// clean and serve the same Put from exactly the footprint a run that
// never crashed ends with.
func TestCrashMidGrow(t *testing.T) {
	env := &crashArena{}
	var keep Ref
	big := pattern(4096, 7)
	setup := func(t *testing.T) []*pmem.Pool {
		pools := env.setup(t)
		keep = env.put(t, pattern(100, 1))
		// Leave too little room in the arena's one chunk for a page of the
		// largest class, so the next such Put claims a chunk.
		ext := env.ar.extents[0]
		ext.cursor = env.ar.chunkBlocks - 1
		ext.pool.Store(ext.base+alloc.SlabChunkCursorOff, ext.cursor, nil)
		ext.pool.Persist(ext.base+alloc.SlabChunkCursorOff, 1, nil)
		return pools
	}
	crashstep.Run(t, crashstep.Scenario{
		From: 1, Floor: 20, // fewer steps: the sweep never reached the grow
		Setup: setup,
		Op:    func(t *testing.T) { env.put(t, big) },
		Twin: func(t *testing.T) {
			setup(t)
			env.put(t, big)
		},
		Recover: env.reattach,
		Check: func(t *testing.T, _ crashstep.Point) {
			env.sweep(t, func(emit func(uint64)) { emit(keep.Word()) })
			if got := env.ar.Get(keep, nil, nil); !bytes.Equal(got, pattern(100, 1)) {
				t.Fatal("live value damaged")
			}
			ref := env.put(t, big)
			if got := env.ar.Get(ref, nil, nil); !bytes.Equal(got, big) {
				t.Fatal("value written after recovery reads back wrong")
			}
			if relinked := env.sweep(t, func(emit func(uint64)) {
				emit(keep.Word())
				emit(ref.Word())
			}); relinked != 0 {
				t.Fatalf("second sweep relinked %d chunks", relinked)
			}
		},
		Census: func(t *testing.T) any {
			c := env.a.Census()
			return [2]int{c.Slab, c.Total - c.Free}
		},
	})
}

// TestCensusCountsExtentsInBlocks pins the arithmetic BlockCensus uses
// for slab-owned chunks: blocks below the bump cursor (header block
// included) are Slab, the uncarved tail is Free, both are in Total. A
// fresh arena owns no chunk; the first Put claims one.
func TestCensusCountsExtentsInBlocks(t *testing.T) {
	cfg := defaultConfig()
	env := newEnv(t, cfg)
	perChunk := int(cfg.ChunkWords / cfg.BlockWords)
	base := env.a.Census()
	if base.Slab != 0 || base.Total != cfg.NumArenas*perChunk || base.Free != base.Total {
		t.Fatalf("fresh arena: census %+v, want no slab block in %d chunks", base, cfg.NumArenas)
	}
	// 13 eight-byte values fill one 1-block page; the 14th grows a second.
	for i := 0; i < 14; i++ {
		if _, err := env.ar.Put(env.ctx, pattern(8, byte(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// One 1 KiB value is one 3-block page.
	if _, err := env.ar.Put(env.ctx, pattern(1024, 1), nil); err != nil {
		t.Fatal(err)
	}
	got := env.a.Census()
	if got.Slab != 1+2+3 || got.Free != base.Free+perChunk-6 || got.Total != base.Total+perChunk {
		t.Fatalf("census %+v after a claimed chunk with 2 small pages and one 3-block page, from %+v", got, base)
	}
	if st := env.ar.Stats(); st.Extents != 1 || st.Pages != 3 {
		t.Fatalf("stats %+v, want 1 extent and 3 pages", st)
	}
	cs := env.ar.ClassStats()
	if c := cs[env.ar.classFor(8)]; c.Pages != 2 {
		t.Fatalf("8 B class has %d pages, want 2", c.Pages)
	}
	if c := cs[env.ar.classFor(1024)]; c.Pages != 1 || c.SpanBlocks != 3 {
		t.Fatalf("1 KiB class %+v, want one 3-block page", c)
	}
	// The block-strided scans must not read value bytes as kind words:
	// store values whose every word looks like a kind, then scan.
	for _, kind := range []uint64{alloc.KindFree, alloc.KindRetired, alloc.KindLegacyVersion} {
		v := make([]byte, 4096)
		for i := 0; i < len(v); i += 8 {
			v[i] = byte(kind)
		}
		if _, err := env.ar.Put(env.ctx, v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(env.a.RetiredBlocks()); n != 0 {
		t.Fatalf("kind scans found %d blocks inside a slab chunk", n)
	}
	env.clock.Advance() // make every stamp stale, as after a restart
	if n := env.a.ReclaimOrphanChunks(env.ctx); n != 0 {
		t.Fatalf("orphan sweep reclaimed %d blocks of a slab chunk", n)
	}
}

// TestSweepCleanStoreIsNoop: sweeping a healthy store must reclaim
// nothing.
func TestSweepCleanStoreIsNoop(t *testing.T) {
	env := newEnv(t, smallConfig())
	var words []uint64
	for i := 0; i < 50; i++ {
		ref, err := env.ar.Put(env.ctx, pattern(i*13%300, byte(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, ref.Word())
	}
	env2 := env.reattach(t)
	relinked := env2.sweep(t, func(emit func(uint64)) {
		for _, w := range words {
			emit(w)
		}
	})
	if relinked != 0 {
		t.Fatalf("clean sweep reclaimed %d chunks, want 0", relinked)
	}
}

// TestRetireGracePeriod: with a domain attached, retired bytes stay
// readable until every pin taken before the retire is released.
func TestRetireGracePeriod(t *testing.T) {
	env := newEnv(t, smallConfig())
	dom := epoch.NewDomain(4)
	env.ar.SetDomain(dom)

	ref, err := env.ar.Put(env.ctx, pattern(64, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _, ok := dom.PinCurrent()
	if !ok {
		t.Fatal("PinCurrent failed")
	}
	env.ar.Retire(ref)
	env.ar.Tick(nil)
	env.ar.Tick(nil)
	if got := env.ar.Get(ref, nil, nil); !bytes.Equal(got, pattern(64, 7)) {
		t.Fatal("retired bytes mutated while a pin was held")
	}
	if env.ar.Stats().LimboChunks != 1 {
		t.Fatalf("limbo drained under an active pin: %+v", env.ar.Stats())
	}
	dom.Unpin(id)
	env.ar.Tick(nil)
	if env.ar.Stats().LimboChunks != 0 {
		t.Fatalf("limbo not drained after unpin: %+v", env.ar.Stats())
	}
	// Freed chunk is reusable now.
	if _, err := env.ar.Put(env.ctx, pattern(64, 8), nil); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedPutDeferredFlush: Put with a pmem.Batch defers the data
// persists; the caller's single Flush makes everything durable.
func TestBatchedPutDeferredFlush(t *testing.T) {
	env := newEnv(t, smallConfig())
	env.pool.EnableTracking()
	var b pmem.Batch
	var refs []Ref
	var want [][]byte
	for i := 0; i < 10; i++ {
		v := pattern(30+i, byte(i))
		ref, err := env.ar.Put(env.ctx, v, &b)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		want = append(want, v)
	}
	b.Flush(nil)
	env.pool.Crash()
	env.pool.DisableTracking()
	for i, ref := range refs {
		if got := env.ar.Get(ref, nil, nil); !bytes.Equal(got, want[i]) {
			t.Fatalf("value %d torn after crash despite Flush", i)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	env := newEnv(t, alloc.Config{
		ChunkWords: 4096,
		MaxChunks:  256,
		BlockWords: 128,
		NumArenas:  4,
		NumLogs:    16,
		RootWords:  64,
	})
	const workers = 4
	const perWorker = 300
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			ctx := exec.NewCtx(w, 0)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				n := rng.Intn(600)
				v := pattern(n, byte(w*31+i))
				ref, err := env.ar.Put(ctx, v, nil)
				if err != nil {
					errs <- fmt.Errorf("worker %d put %d: %w", w, i, err)
					return
				}
				if got := env.ar.Get(ref, nil, nil); !bytes.Equal(got, v) {
					errs <- fmt.Errorf("worker %d value %d mismatch", w, i)
					return
				}
				if i%3 == 0 {
					env.ar.Retire(ref)
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	env.ar.DrainQuiesced(nil)
	if env.ar.Stats().LimboChunks != 0 {
		t.Fatalf("limbo not empty after drain: %+v", env.ar.Stats())
	}
}

// poolsArena attaches an arena to an allocator over one small pool per
// ID in ids, each formatted with cfg.
func poolsArena(t *testing.T, cfg alloc.Config, ids ...uint16) *Arena {
	t.Helper()
	space := riv.NewSpace()
	var pas []*alloc.PoolAllocator
	for _, id := range ids {
		pool, err := pmem.NewPool(pmem.Config{ID: id, Words: alloc.MinPoolWords(cfg, 2), HomeNode: -1})
		if err != nil {
			t.Fatal(err)
		}
		pa, err := alloc.Format(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		space.AddPool(pool)
		pas = append(pas, pa)
	}
	clock := epoch.Attach(pas[0].Pool(), alloc.EpochOff)
	clock.InitIfZero()
	a := alloc.New(space, clock)
	for _, pa := range pas {
		a.AttachPool(pa, -1)
	}
	ar, err := Attach(a, exec.NewCtx(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestIsRefPredicate pins the value-word predicate the engine's codec
// rests on: every ref makeRef can produce for an address in an attached
// pool's chunk area passes — up to the highest attached pool ID, the
// last chunk and the last word of a chunk, at every producible length
// code — and nothing else does: no unproducible length, no address in
// an unattached pool, past MaxChunks, in the null chunk field or past a
// chunk's end, no word below 2^63 and not the tombstone. So an 8-byte
// value holding any of those can be the node word itself.
func TestIsRefPredicate(t *testing.T) {
	cfg := smallConfig()
	ar := poolsArena(t, cfg, 0, 2)
	last, end := uint16(cfg.MaxChunks-1), uint32(cfg.ChunkWords-1)
	in := []riv.Ptr{riv.Make(0, 0, 0), riv.Make(2, last, end), riv.Make(0, last, 0), riv.Make(2, 0, end), riv.Make(0, 7, 1024)}
	out := []riv.Ptr{riv.Make(1, 0, 0), riv.Make(3, 0, 0), riv.Make(0xfe, 0xfffd, uint32(refOffMask)), riv.Make(0, last+1, 0), riv.Make(2, 0, end+1)}
	for l := 0; l <= lenChained; l++ {
		producible := l <= maxRefLen || l == lenChained
		for _, p := range in {
			ref := makeRef(l, p)
			if ar.IsRef(ref.Word()) != producible {
				t.Fatalf("IsRef(makeRef(%d, %v)) = %v, want %v", l, p, !producible, producible)
			}
			if producible && (ref.lenField() != l || ref.ptr() != p) {
				t.Fatalf("ref (%d, %v) unpacks to (%d, %v)", l, p, ref.lenField(), ref.ptr())
			}
		}
		for _, p := range out {
			ref := makeRef(l, p)
			if ar.IsRef(ref.Word()) {
				t.Fatalf("IsRef(makeRef(%d, %v)) = true outside the attached pools' chunk area", l, p)
			}
			if producible && (ref.lenField() != l || ref.ptr() != p) {
				t.Fatalf("ref (%d, %v) unpacks to (%d, %v)", l, p, ref.lenField(), ref.ptr())
			}
		}
	}
	if maxRefLen != 5112 {
		t.Fatalf("maxRefLen = %d, want 5112 (the 640-word class less its header)", maxRefLen)
	}
	for _, w := range []uint64{0, 1, 1<<63 - 1, ^uint64(0), ^uint64(0) - 1, 1<<63 | 8<<refLenShift | 5,
		1<<63 | (maxRefLen+1)<<refLenShift | 1<<refChunkShift, ^uint64(0) - 1<<refLenShift} {
		if ar.IsRef(w) {
			t.Fatalf("IsRef(%#x) = true, want false", w)
		}
	}
	// What the arena hands out, at both ends of every class and chained.
	for _, cfg := range []alloc.Config{smallConfig(), defaultConfig()} {
		env := newEnv(t, cfg)
		if env.ar.MaxSingle() > maxRefLen {
			t.Fatalf("MaxSingle %d exceeds the ref length field's %d", env.ar.MaxSingle(), maxRefLen)
		}
		lens := []int{0, env.ar.MaxSingle() + 1, 3 * env.ar.MaxSingle()}
		for _, c := range env.ar.classes {
			lens = append(lens, c.payloadBytes(), c.payloadBytes()-7)
		}
		for _, n := range lens {
			ref, err := env.ar.Put(env.ctx, pattern(n, 3), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !env.ar.IsRef(ref.Word()) {
				t.Fatalf("ref %#x of a %d-byte value is not ref-shaped", ref.Word(), n)
			}
		}
	}
}

// countsDuring returns the pool counters fn moved.
func (env *testEnv) countsDuring(fn func()) pmem.StatsSnapshot {
	env.ctx.Mem.Publish()
	b := env.pool.Stats().Snapshot()
	fn()
	env.ctx.Mem.Publish()
	a := env.pool.Stats().Snapshot()
	return pmem.StatsSnapshot{Loads: a.Loads - b.Loads, Stores: a.Stores - b.Stores, CASes: a.CASes - b.CASes,
		Flushes: a.Flushes - b.Flushes, Fences: a.Fences - b.Fences}
}

// fillLargest puts largest-class values until the pool has room for no
// other, and returns their refs.
func (env *testEnv) fillLargest(t testing.TB) []Ref {
	t.Helper()
	var refs []Ref
	for {
		ref, err := env.ar.Put(env.ctx, pattern(env.ar.MaxSingle(), byte(len(refs))), nil)
		if errors.Is(err, alloc.ErrPoolFull) {
			return refs
		}
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
}

// lockChecker is an injector that fails the test when any class mutex
// of ar is held at a pool access.
type lockChecker struct {
	t  testing.TB
	ar *Arena
}

func (lc *lockChecker) Step() {
	for class := range lc.ar.free {
		mu := &lc.ar.free[class].mu
		if !mu.TryLock() {
			lc.t.Fatalf("class %d's mutex is held across a pool access", class)
		}
		mu.Unlock()
	}
}

// TestClassLockNeverHeldAcrossPoolAccess: every pool access the arena
// makes — one-op and batched puts of small, 1 KiB and chained values,
// page grows and chunk claims, retirement through Tick and
// DrainQuiesced, a chained put rolled back on a full pool, a reattach
// and its sweep — happens with every class mutex free.
func TestClassLockNeverHeldAcrossPoolAccess(t *testing.T) {
	env := newEnv(t, smallConfig())
	env.ar.SetDomain(epoch.NewDomain(4))
	lc := &lockChecker{t: t, ar: env.ar}
	env.pool.SetInjector(lc)
	defer env.pool.SetInjector(nil)

	chained := 3 * env.ar.segCap()
	var refs []Ref
	put := func(n int, flush *pmem.Batch) {
		ref, err := env.ar.Put(env.ctx, pattern(n, byte(len(refs))), flush)
		if err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		refs = append(refs, ref)
	}
	// The first Put claims the arena's first chunk and grows a page; the
	// second of each size pops from the list.
	for _, n := range []int{20, 20, 1024, 1024, chained} {
		put(n, nil)
	}
	var b pmem.Batch
	for _, n := range []int{20, 1024, chained} {
		put(n, &b)
	}
	b.Flush(env.ctx.Mem)
	for env.ar.Stats().Extents < 2 {
		put(env.ar.MaxSingle(), nil)
	}
	for _, ref := range refs[:len(refs)/2] {
		env.ar.Retire(ref)
	}
	env.ar.Tick(env.ctx.Mem)
	for _, ref := range refs[len(refs)/2:] {
		env.ar.Retire(ref)
	}
	env.ar.DrainQuiesced(env.ctx.Mem)

	full := env.fillLargest(t)
	env.ar.Retire(full[0])
	env.ar.DrainQuiesced(env.ctx.Mem)
	if _, err := env.ar.Put(env.ctx, pattern(chained, 9), nil); !errors.Is(err, alloc.ErrPoolFull) {
		t.Fatalf("a 3-segment put on a pool with one free segment: %v, want ErrPoolFull", err)
	}

	env2 := env.reattach(t)
	lc.ar = env2.ar
	env2.sweep(t, func(emit func(uint64)) {
		for _, ref := range full[1:] {
			emit(ref.Word())
		}
	})
	if _, err := env2.ar.Put(env2.ctx, pattern(env2.ar.MaxSingle(), 1), nil); err != nil {
		t.Fatal(err)
	}
}

// TestFreeListTouchesNoPool: taking a chunk off a class list and putting
// it back touch no pool word. A one-op 100-byte put into a listed chunk
// costs exactly its header and payload stores, its lines' flushes and
// one fence; freeing it costs the one store that zeroes its header.
func TestFreeListTouchesNoPool(t *testing.T) {
	env := newEnv(t, smallConfig())
	val := pattern(100, 1)
	if _, err := env.ar.Put(env.ctx, val, nil); err != nil { // grows the page
		t.Fatal(err)
	}
	var ref Ref
	got := env.countsDuring(func() {
		var err error
		if ref, err = env.ar.Put(env.ctx, val, nil); err != nil {
			t.Fatal(err)
		}
	})
	_, off := env.space.Resolve(ref.ptr())
	words := uint64(1 + (len(val)+7)/8)
	lines := (off+words-1)/pmem.LineWords - off/pmem.LineWords + 1
	if want := (pmem.StatsSnapshot{Stores: words, Flushes: lines, Fences: 1}); got != want {
		t.Fatalf("one-op put from the list: %+v, want %+v", got, want)
	}
	got = env.countsDuring(func() {
		env.ar.Retire(ref)
		env.ar.DrainQuiesced(env.ctx.Mem)
	})
	if want := (pmem.StatsSnapshot{Stores: 1}); got != want {
		t.Fatalf("freeing a chunk: %+v, want %+v", got, want)
	}
}

// TestOldSlabDirectoryImageLoads: an image in the layout written while
// the free lists lived in the pools — a root chunk whose tag word counts
// the class heads behind its header line, a page whose free chunks carry
// a persisted next-pointer chain, live values beside them — reattaches
// and sweeps with nothing relinked, reads its values back, and hands out
// every formerly free chunk before it grows.
func TestOldSlabDirectoryImageLoads(t *testing.T) {
	cfg := smallConfig()
	cfg.BlockWords = 16 // so that the heads push the first page to block 2
	env := newEnv(t, cfg)
	ar, ctx := env.ar, env.ctx
	nHeads := uint64(len(ar.classes))
	first := hdrBlocks(nHeads, cfg.BlockWords)
	if first <= hdrBlocks(0, cfg.BlockWords) {
		t.Fatalf("the heads take no block of their own (%d)", first)
	}
	class := ar.classFor(40)
	c := ar.classes[class]

	// The root chunk, its page and its directory, as the older arena
	// formatted them.
	root, err := env.a.ClaimSlabChunk(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	pool, base := env.space.Resolve(root)
	pool.Store(base+alloc.SlabChunkTagOff, nHeads, nil)
	pg := (&extent{ptr: root, pool: pool, base: base}).page(first, cfg.BlockWords, class)
	pool.Store(pg.off, pageMagic|c.span<<16|uint64(class), nil)
	live := map[uint64]bool{1: true, 4: true}
	var freeSlots []riv.Ptr
	var refs []Ref
	next := riv.Null
	for i := c.perPage; i > 0; i-- {
		p, off := pg.slot(i-1, c)
		if live[i-1] {
			pool.Store(off, hdrUsed|40, nil)
			pool.StoreBytes(off+1, pattern(40, byte(len(refs))), nil)
			refs = append(refs, makeRef(40, p))
			continue
		}
		pool.Store(off, next.Word(), nil)
		next = p
		freeSlots = append(freeSlots, p)
	}
	pool.Store(base+pmem.LineWords+uint64(class), next.Word(), nil)
	pool.Store(base+alloc.SlabChunkCursorOff, first+c.span, nil)
	pool.Persist(base, (first+c.span)*cfg.BlockWords, nil)

	env2 := env.reattach(t)
	if n := env2.sweep(t, func(emit func(uint64)) {
		for _, ref := range refs {
			emit(ref.Word())
		}
	}); n != 0 || env2.ar.Stats().SweepScanned != 1 {
		t.Fatalf("sweep of the old image relinked %d chunks in %d pages, want 0 in 1", n, env2.ar.Stats().SweepScanned)
	}
	checkLive := func() {
		for i, ref := range refs {
			if got := env2.ar.Get(ref, nil, nil); !bytes.Equal(got, pattern(40, byte(i))) {
				t.Fatalf("live value %d reads %x", i, got)
			}
		}
	}
	checkLive()
	census := env2.a.Census()
	handed := make(map[riv.Ptr]bool)
	for range freeSlots {
		ref, err := env2.ar.Put(env2.ctx, pattern(40, 0xee), nil)
		if err != nil {
			t.Fatal(err)
		}
		handed[ref.ptr()] = true
		if got := env2.a.Census(); got != census {
			t.Fatalf("census grew %+v -> %+v with formerly free chunks left", census, got)
		}
	}
	for _, p := range freeSlots {
		if !handed[p] {
			t.Fatalf("formerly free chunk %v not handed out", p)
		}
	}
	checkLive()
}

// TestSweepFlushesOnlyRelinkedPages: the sweep persists only the header
// of a chunk it relinked. A clean reopen of a store with many full pages
// flushes nothing; with one crash-leaked chunk, it flushes that chunk's
// header line.
func TestSweepFlushesOnlyRelinkedPages(t *testing.T) {
	env := newEnv(t, smallConfig())
	var words []uint64
	for i := 0; i < 300; i++ {
		ref, err := env.ar.Put(env.ctx, pattern(40, byte(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, ref.Word())
	}
	live := func(emit func(uint64)) {
		for _, w := range words {
			emit(w)
		}
	}

	clean := env.reattach(t)
	if got := clean.countsDuring(func() {
		if n := clean.sweep(t, live); n != 0 {
			t.Fatalf("clean sweep relinked %d chunks", n)
		}
	}).Flushes; got != 0 {
		t.Fatalf("clean sweep of %d pages flushed %d lines, want 0", clean.ar.Stats().SweepScanned, got)
	}
	if clean.ar.Stats().SweepScanned < 10 {
		t.Fatalf("only %d pages swept; the test wants many", clean.ar.Stats().SweepScanned)
	}

	env.pool.EnableTracking()
	if _, err := env.ar.Put(env.ctx, pattern(40, 7), nil); err != nil {
		t.Fatal(err)
	}
	env.pool.Crash()
	env.pool.DisableTracking()
	crashed := env.reattach(t)
	if got := crashed.countsDuring(func() {
		if n := crashed.sweep(t, live); n != 1 {
			t.Fatalf("sweep relinked %d chunks, want the 1 leaked", n)
		}
	}).Flushes; got != 1 {
		t.Fatalf("sweep with one leaked chunk flushed %d lines, want its header line", got)
	}
	// The relink is durable: a second crash right after does not bring
	// the chunk back as in use.
	crashed.pool.EnableTracking()
	crashed.pool.Crash()
	crashed.pool.DisableTracking()
	again := crashed.reattach(t)
	if n := again.sweep(t, live); n != 0 {
		t.Fatalf("second sweep relinked %d chunks, want 0", n)
	}
}

// TestSweepWithoutPagesSkipsTheStructure: an arena that never carved a
// page (a store of inline values, here one whose chunk claim a crash cut
// off before its first page) sweeps without asking for the live words
// and without a pool access — its cost does not depend on the
// structure's size. One value is enough to bring the walk back.
func TestSweepWithoutPagesSkipsTheStructure(t *testing.T) {
	env := newEnv(t, smallConfig())
	if _, err := env.a.ClaimSlabChunk(env.ctx, hdrBlocks(0, env.ar.blockWords)); err != nil {
		t.Fatal(err)
	}

	env2 := env.reattach(t)
	if len(env2.ar.extents) != 1 {
		t.Fatalf("reattached arena found %d extents, want the claimed one", len(env2.ar.extents))
	}
	env2.ctx.Mem.Publish()
	before := env2.pool.Stats().Snapshot()
	if n := env2.sweep(t, func(func(uint64)) { t.Fatal("live walked with no page carved") }); n != 0 {
		t.Fatalf("relinked %d", n)
	}
	env2.ctx.Mem.Publish()
	if after := env2.pool.Stats().Snapshot(); after != before {
		t.Fatalf("page-less sweep touched the pool: %+v, then %+v", before, after)
	}
	if st := env2.ar.Stats(); st.SweepScanned != 0 || st.SweepRelinked != 0 {
		t.Fatalf("stats after a page-less sweep: %+v", st)
	}

	ref, err := env2.ar.Put(env2.ctx, pattern(100, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	env3 := env2.reattach(t)
	walked := false
	env3.sweep(t, func(emit func(uint64)) { walked = true; emit(ref.Word()) })
	if !walked || env3.ar.Stats().SweepScanned != 1 {
		t.Fatalf("one value stored: walked=%v pages swept=%d, want true and 1", walked, env3.ar.Stats().SweepScanned)
	}
}

// TestSweepAllocationsIndependentOfRefs: the sweep's referenced set is a
// bitmap per extent found through a dense table, not a hash map, so its
// Go allocations do not grow with the number of live refs. Sweeps of an
// arena holding 2 000 values and of one holding 20 000 allocate alike:
// 17 times each (60 and 308 times while a map held the set and the pages
// were gathered into a slice first).
func TestSweepAllocationsIndependentOfRefs(t *testing.T) {
	cfg := defaultConfig()
	cfg.MaxChunks = 32
	allocs := func(n int) float64 {
		env := newEnv(t, cfg)
		words := make([]uint64, n)
		for i := range words {
			ref, err := env.ar.Put(env.ctx, pattern(40+i%64, byte(i)), nil)
			if err != nil {
				t.Fatal(err)
			}
			words[i] = ref.Word()
		}
		live := func(emit func(uint64)) {
			for _, w := range words {
				emit(w)
			}
		}
		return testing.AllocsPerRun(5, func() { env.sweep(t, live) })
	}
	if small, large := allocs(2000), allocs(20000); small != large {
		t.Fatalf("sweep allocations: %v with 2 000 refs, %v with 20 000", small, large)
	}
}
