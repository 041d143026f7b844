package upskiplist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
	"upskiplist/internal/slab"
)

// Tests of the value word: the codec (an 8-byte value is the node word
// unless that word would read as a ref or the tombstone), crashes across
// a key's changes of representation, stores written before values could
// be inline, and the recovery that no longer walks a store of inline
// values.

// refShaped is an 8-byte value whose word reads as a slab ref of every
// store this package builds, so it cannot be stored inline: bit 63, pool
// 0, chunk 0 (biased 1), and x spread over a producible length code and
// an offset below the smallest chunk size used here (4 096 words).
func refShaped(x uint64) []byte {
	return u64v(1<<63 | x>>12%5113<<48 | 1<<24 | x&(1<<12-1))
}

// inlineEligible mirrors the codec's rule from the outside.
func inlineEligible(e *engine, v []byte) bool {
	if len(v) != 8 {
		return false
	}
	w := binary.LittleEndian.Uint64(v)
	return !e.vals.IsRef(w) && w != Tombstone
}

// FuzzValueWord: for any value, decodeValue(encodeValue(v)) == v; the
// word of an inline-eligible value is the value, is not ref-shaped and
// costs no chunk; every other value — the all-ones word, ref-shaped
// 8-byte words, every other length — lands in the slab behind a
// ref-shaped word; Tombstone is never a value word; and the public API
// agrees. The seed corpus runs with the ordinary tests.
func FuzzValueWord(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(u64v(0))
	f.Add(u64v(42))
	f.Add(u64v(1<<63 - 1))
	f.Add(u64v(Tombstone))
	f.Add(u64v(Tombstone - 1))                      // length code 0x7fff, pool 0xff: inline
	f.Add(u64v(1<<63 | 5113<<48 | 1<<24 | 0xdef))   // first unproducible length: inline
	f.Add(u64v(1<<63 | 5112<<48 | 1<<24 | 0xdef))   // last producible length: slab
	f.Add(u64v(1<<63 | 0x7fff<<48 | 1<<24 | 0xdef)) // chained-shaped: slab
	f.Add(refShaped(0x123456))
	f.Add(patVal(1, 1, 7))
	f.Add(patVal(1, 1, 9))
	f.Add(patVal(1, 1, 24))
	f.Add(patVal(1, 1, 100))
	f.Add(patVal(1, 1, 6000)) // chained
	// The geometry testOptions fixes: pool 0 only, 256 chunks of 4 096
	// words.
	f.Add(u64v(1<<63 | 8<<48 | 1<<40 | 1<<24 | 5)) // pool 1 is not attached: inline
	f.Add(u64v(1<<63 | 8<<48 | 5))                 // chunk field 0 (null): inline
	f.Add(u64v(1<<63 | 8<<48 | 257<<24 | 5))       // chunk 256, past MaxChunks: inline
	f.Add(u64v(1<<63 | 8<<48 | 256<<24 | 4095))    // last chunk, last word: slab
	f.Add(u64v(1<<63 | 8<<48 | 1<<24 | 4096))      // offset = ChunkWords: inline

	st, err := Create(testOptions())
	if err != nil {
		f.Fatal(err)
	}
	e, ctx, w := st.shards[0], exec.NewCtx(1, 0), st.NewWorker(0)
	f.Fuzz(func(t *testing.T, v []byte) {
		if len(v) > MaxValueLen {
			t.Skip()
		}
		before := e.vals.Stats().ChunksAlloced
		word, err := e.encodeValue(ctx, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		chunks := e.vals.Stats().ChunksAlloced - before
		switch {
		case word == Tombstone:
			t.Fatalf("value %x encoded as the tombstone", v)
		case inlineEligible(e, v):
			if word != binary.LittleEndian.Uint64(v) || e.vals.IsRef(word) || chunks != 0 {
				t.Fatalf("inline-eligible %x: word %#x, ref-shaped %v, %d chunks", v, word, e.vals.IsRef(word), chunks)
			}
		case !e.vals.IsRef(word) || chunks == 0:
			t.Fatalf("%d-byte value %x: word %#x, ref-shaped %v, %d chunks; want it in the slab", len(v), v[:min(8, len(v))], word, e.vals.IsRef(word), chunks)
		}
		if got := e.decodeValue(word, nil, ctx.Mem); !bytes.Equal(got, v) {
			t.Fatalf("decode(encode(%x)) = %x", v, got)
		}
		e.retireWord(word)

		if _, _, err := w.Put(9, v); err != nil {
			t.Fatal(err)
		}
		if got, ok := w.Get(9); !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get after Put(%x) = %x, %v", v, got, ok)
		}
		if word, _ := st.ShardList(0).Get(ctx, 9); e.vals.IsRef(word) == inlineEligible(e, v) {
			t.Fatalf("Put(%x) published word %#x", v, word)
		}
		st.drainReclaimQuiesced()
	})
}

// crashValueOps crashes, at every pmem step, the operations that take
// key through states[1:] (nil: Remove) on the store build makes, where
// key holds states[0]. After each crash key must hold the value of the
// last finished operation or of the one in flight and the store must pass
// CheckInvariants; once the rest is redone, its footprint must equal a
// never-crashed twin's, on which twin runs the operations (run) and
// checks what they did. It returns the step the operations finished at.
func crashValueOps(t *testing.T, c *crashStore, build func(t *testing.T), key uint64, states [][]byte, floor int64, twin func(t *testing.T, run func())) int64 {
	done := 0 // operations the run has finished
	applyFrom := func(t *testing.T, i int) {
		var err error
		for done = i; done+1 < len(states); done++ {
			if v := states[done+1]; v == nil {
				_, _, err = c.w.Remove(key)
			} else {
				_, _, err = c.w.Put(key, v)
			}
			if err != nil {
				t.Fatalf("operation %d: %v", done, err)
			}
		}
	}
	setup := func(t *testing.T) []*pmem.Pool {
		build(t)
		return c.Pools()
	}
	return crashstep.Run(t, crashstep.Scenario{
		From: 1, Floor: floor,
		Setup: setup,
		Op:    func(t *testing.T) { applyFrom(t, 0) },
		Twin: func(t *testing.T) {
			setup(t)
			twin(t, func() { applyFrom(t, 0) })
		},
		Recover: c.restart,
		Check: func(t *testing.T, _ crashstep.Point) {
			got, ok := c.w.Get(key)
			holds := func(i int) bool { return ok == (states[i] != nil) && (!ok || bytes.Equal(got, states[i])) }
			at := done
			if !holds(at) {
				if at++; !holds(at) {
					t.Fatalf("%d operations done: key holds %x (found=%v), neither %x nor %x", done, got, ok, states[done], states[done+1])
				}
			}
			if err := c.w.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			applyFrom(t, at)
		},
		Census: c.footprint,
	})
}

// TestValueRepresentationCrashEveryStep drives one key through both
// representations — Put 8 B inline, Put 100 B, Put 8 B inline, Remove —
// and crashes at every pmem step of the sequence (crashValueOps). The
// footprint check after the limbo is drained finds no chunk left for a
// further sweep to relink: an inline word that replaced a ref retired
// the ref's chunk.
func TestValueRepresentationCrashEveryStep(t *testing.T) {
	const target = uint64(5)
	c := &crashStore{}
	build := func(t *testing.T) {
		c.create(t, testOptions())
		for k, v := range [][]byte{2: u64v(7), 3: patVal(3, 0, 24), 4: refShaped(4), 6: patVal(6, 0, 300), 7: u64v(9)} {
			if v == nil {
				continue
			}
			if _, _, err := c.w.Put(uint64(k), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	states := [][]byte{nil, u64v(0x1111), patVal(target, 1, 100), u64v(0x2222), nil}
	n := crashValueOps(t, c, build, target, states, 40, func(t *testing.T, run func()) {
		run()
		if s := c.SlabStats(); s.ChunksRetired != 1 {
			t.Fatalf("the sequence retired %d chunks, want the 100-byte value's one", s.ChunksRetired)
		}
		c.drainReclaimQuiesced()
		if c.restart(t); c.SlabStats().SweepRelinked != 0 {
			t.Fatalf("the never-crashed twin leaked %d chunks", c.SlabStats().SweepRelinked)
		}
	})
	t.Logf("crashed the sequence at each of its %d pmem steps", n-1)
}

// putAsRef stores val the way every store written before inline values
// did: in a slab chunk, whatever its length, the ref published through
// the list.
func putAsRef(t *testing.T, st *Store, key uint64, val []byte) {
	t.Helper()
	si := st.ShardOf(key)
	ctx := exec.NewCtx(0, 0)
	defer ctx.Mem.Publish()
	ref, err := st.shards[si].vals.Put(ctx, val, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ShardList(si).Insert(ctx, key, ref.Word()); err != nil {
		t.Fatal(err)
	}
}

// TestOldImageRefValuesStillLoad: a physical image whose 8-byte values
// are all slab refs — what every earlier revision wrote — loads and
// reads back through Get, Scan and a snapshot; overwriting a key with an
// inline-eligible value flips its word to inline and gives the chunk
// back; and the half-migrated store survives a crash.
func TestOldImageRefValuesStillLoad(t *testing.T) {
	o := testOptions()
	o.Shards = 2
	old, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	val := func(k, gen uint64) []byte { return u64v(k*1000 + gen) }
	for k := uint64(1); k <= n; k++ {
		putAsRef(t, old, k, val(k, 0))
	}
	if c := old.SlabStats().ChunksAlloced; c != n {
		t.Fatalf("the old-format store holds %d chunks, want %d", c, n)
	}
	dir := t.TempDir()
	if err := old.Save(dir); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if got, ok := w.Get(k); !ok || !bytes.Equal(got, val(k, 0)) {
			t.Fatalf("Get(%d) = %x, %v", k, got, ok)
		}
		if got, ok := sn.Get(k); !ok || !bytes.Equal(got, val(k, 0)) {
			t.Fatalf("Snap.Get(%d) = %x, %v", k, got, ok)
		}
	}
	next := uint64(1)
	if err := w.Scan(KeyMin, KeyMax, func(k uint64, v []byte) bool {
		if k != next || !bytes.Equal(v, val(k, 0)) {
			t.Fatalf("Scan yields (%d, %x), want key %d", k, v, next)
		}
		next++
		return true
	}); err != nil || next != n+1 {
		t.Fatalf("Scan stopped at %d: %v", next, err)
	}
	sn.Release()

	// One overwrite: the word turns inline, the chunk retires and, after
	// the drain, is the next one handed out.
	before := st.SlabStats()
	if prev, existed, err := w.Put(1, val(1, 1)); err != nil || !existed || !bytes.Equal(prev, val(1, 0)) {
		t.Fatalf("overwrite returned %x, %v, %v", prev, existed, err)
	}
	ctx := exec.NewCtx(0, 0)
	if word, _ := st.ShardList(st.ShardOf(1)).Get(ctx, 1); word != leU64(val(1, 1)) {
		t.Fatalf("overwritten key's word is %#x, want the inline value", word)
	}
	if s := st.SlabStats(); s.ChunksRetired != before.ChunksRetired+1 || s.LimboChunks != 1 || s.ChunksAlloced != before.ChunksAlloced {
		t.Fatalf("after the overwrite: %+v (before %+v)", s, before)
	}
	st.drainReclaimQuiesced()
	if _, _, err := w.Put(1, refShaped(1)); err != nil { // same shard, same class
		t.Fatal(err)
	}
	if s := st.SlabStats(); s.LimboChunks != 0 || s.ChunksFreed != before.ChunksFreed+1 || s.Pages != before.Pages {
		t.Fatalf("after drain and reuse: %+v (before %+v)", s, before)
	}

	// Migrate half of the keys, then lose the volatile limbo and every
	// unflushed free-list link in a crash: each migrated chunk is on no
	// list and in no node, and the sweep finds exactly those.
	st.EnableCrashTracking()
	migrated := uint64(0)
	for k := uint64(2); k <= n; k += 2 {
		if _, _, err := w.Put(k, val(k, 1)); err != nil {
			t.Fatal(err)
		}
		migrated++
	}
	st.SimulateCrash()
	st.DisableCrashTracking()
	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if r := st2.RecoveryStats(); r.ChunksRelinked != migrated || r.PagesSwept == 0 {
		t.Fatalf("recovery relinked %d chunks over %d pages, want %d chunks", r.ChunksRelinked, r.PagesSwept, migrated)
	}
	w2 := st2.NewWorker(0)
	if err := w2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		want := val(k, 1-k%2)
		if k == 1 {
			want = refShaped(1)
		}
		if got, ok := w2.Get(k); !ok || !bytes.Equal(got, want) {
			t.Fatalf("after the crash Get(%d) = %x, %v, want %x", k, got, ok, want)
		}
	}
}

// TestScanFreeRecovery: reopening a store that holds only inline values
// sweeps no page and never walks the structure — the pmem loads charged
// to Reopen are the allocator's term (the kind word of each block of each
// provisioned chunk) and nothing that reads a key or a value. One
// out-of-line value brings the sweep back, and it still finds a
// deliberately leaked chunk.
func TestScanFreeRecovery(t *testing.T) {
	reopenLoads := func(keys uint64) (loads, chunks uint64, st2 *Store) {
		o := DefaultOptions()
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		w := st.NewWorker(0)
		for k := uint64(1); k <= keys; k++ {
			if _, _, err := w.PutU64(k, k*31); err != nil {
				t.Fatal(err)
			}
		}
		if s := st.SlabStats(); s.ChunksAlloced != 0 || s.Pages != 0 {
			t.Fatalf("%d PutU64 calls allocated %d chunks in %d pages", keys, s.ChunksAlloced, s.Pages)
		}
		st.SimulateCrash()
		before := st.Stats().Mem.Loads
		st2, err = st.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if r := st2.RecoveryStats(); r.PagesSwept != 0 || r.ChunksRelinked != 0 {
			t.Fatalf("%d keys: recovery swept %d pages, relinked %d chunks", keys, r.PagesSwept, r.ChunksRelinked)
		}
		c := st2.BlockCensus()
		return st2.Stats().Mem.Loads - before, uint64(c.Total) * o.allocConfig().BlockWords / o.ChunkWords, st2
	}
	smallLoads, smallChunks, _ := reopenLoads(20_000)
	bigLoads, bigChunks, st := reopenLoads(200_000)
	t.Logf("Reopen: %d loads over %d chunks at 20 K keys, %d loads over %d chunks at 200 K", smallLoads, smallChunks, bigLoads, bigChunks)
	if bigChunks <= smallChunks {
		t.Fatalf("200 K keys use %d allocator chunks, 20 K use %d", bigChunks, smallChunks)
	}
	// A kind word per block and a few header words per chunk (305 here).
	// Walking the bottom level reads a node's keys and values, which at
	// this geometry is more than 30 loads per block.
	o := DefaultOptions()
	blocksPerChunk := o.ChunkWords / o.allocConfig().BlockWords
	if perChunk := (bigLoads - smallLoads) / (bigChunks - smallChunks); bigLoads < smallLoads || perChunk > 2*blocksPerChunk {
		t.Fatalf("Reopen loads grow by %d per allocator chunk of %d blocks (%d -> %d over %d -> %d chunks)", perChunk, blocksPerChunk, smallLoads, bigLoads, smallChunks, bigChunks)
	}
	w := st.NewWorker(0)
	if v, ok := w.GetU64(123_456); !ok || v != 123_456*31 {
		t.Fatalf("GetU64 after reopen = %d, %v", v, ok)
	}

	// One 100-byte value, and a chunk leaked behind it.
	if _, _, err := w.Put(7, patVal(7, 0, 100)); err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewCtx(0, 0)
	if _, err := st.shards[0].vals.Put(ctx, patVal(8, 0, 100), nil); err != nil {
		t.Fatal(err)
	}
	st.SimulateCrash()
	st3, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if r := st3.RecoveryStats(); r.PagesSwept != 1 || r.ChunksRelinked != 1 {
		t.Fatalf("recovery swept %d pages and relinked %d chunks, want 1 and 1", r.PagesSwept, r.ChunksRelinked)
	}
	if got, ok := st3.NewWorker(0).Get(7); !ok || !bytes.Equal(got, patVal(7, 0, 100)) {
		t.Fatalf("the 100-byte value after the sweep: %x, %v", got, ok)
	}
}

// benchValueWord is the 8-byte value the benchmark writes for key k at
// version ver (FillValue in benchmark/gen.go, a module of its own, so
// the formula is copied here).
func benchValueWord(k uint64, ver uint32) uint64 {
	z := k ^ 0x76616C7565 // "value"
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return (z^z>>31)>>32<<32 | uint64(ver)
}

// TestRefPredicateOdds: an 8-byte value leaves its node only when its
// word names a chunk of the store's own pools. A uniform random word
// does at the default geometry with a rate far below 10⁻⁴, and the
// benchmark's 8-byte workloads — each at its own pool geometry, over the
// keys it writes — write no such word and take no chunk.
func TestRefPredicateOdds(t *testing.T) {
	st, err := Create(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	const n = 1_000_000
	hits := 0
	for i := 0; i < n; i++ {
		if st.shards[0].vals.IsRef(r.Uint64()) {
			hits++
		}
	}
	t.Logf("%d of %d uniform random words leave the node: rate %.2g", hits, n, float64(hits)/n)
	if hits >= n/10_000 {
		t.Fatalf("%d of %d uniform random words are ref-shaped, want a rate below 1e-4", hits, n)
	}

	for _, wl := range []struct {
		name         string
		keys, shards int
		written      uint64 // keys the workload writes: churn keeps inserting fresh ones
	}{
		{"point-a-1w", 200_000, 1, 200_000},
		{"wire-a-d*", 100_000, 4, 100_000},
		{"churn-4k", 4_000, 1, 1_000_000},
	} {
		// The benchmark's pool sizing for 8-byte values (options in
		// benchmark/workloads.go). The predicate reads MaxChunks, not
		// the pool's size, so the pools here stay small.
		o := DefaultOptions()
		o.Shards = wl.shards
		o.MaxChunks = (uint64(wl.keys/wl.shards+1)*12*4 + 1<<20 + o.ChunkWords - 1) / o.ChunkWords
		o.PoolWords = 1 << 20
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		e := st.shards[0]
		for k := uint64(1); k <= wl.written; k++ {
			for ver := uint32(0); ver < 64; ver++ {
				if w := benchValueWord(k, ver); e.vals.IsRef(w) {
					t.Fatalf("%s (MaxChunks %d): key %d version %d writes ref-shaped word %#x", wl.name, o.MaxChunks, k, ver, w)
				}
			}
		}
		w := st.NewWorker(0)
		for k := uint64(1); k <= 2048; k++ {
			if _, _, err := w.PutU64(k, benchValueWord(k, uint32(k%64))); err != nil {
				t.Fatal(err)
			}
		}
		if s := st.SlabStats(); s.ChunksAlloced != 0 || s.Pages != 0 {
			t.Fatalf("%s: 2 048 benchmark values took %d chunks in %d pages", wl.name, s.ChunksAlloced, s.Pages)
		}
	}
}

// oldIsRef is the predicate of every revision before the one that
// checks a ref's address: bit 63 and a producible length code, the
// tombstone excepted.
func oldIsRef(w uint64) bool {
	l := w >> 48 & 0x7FFF
	return w>>63 == 1 && (l <= 5112 || l == 0x7FFF) && w != Tombstone
}

// TestOldRefShapedWordsStayInline: 8-byte values whose words read as
// refs to the old predicate but name no chunk of the store's pools are
// stored inline, and read back byte-identical after Reopen, after
// Save→Load, and after a pairs dump loads into a different shard count.
func TestOldRefShapedWordsStayInline(t *testing.T) {
	o := testOptions()
	o.Shards = 2
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	val := func(k uint64) []byte {
		switch k % 3 {
		case 0:
			return u64v(1<<63 | 8<<48 | k) // chunk field 0
		case 1:
			return u64v(1<<63 | 100<<48 | 3<<40 | 1<<24 | k) // pool 3, not attached
		}
		return u64v(1<<63 | 5112<<48 | 0xffff<<24 | k) // chunk past MaxChunks
	}
	w := st.NewWorker(0)
	for k := uint64(1); k <= n; k++ {
		if !oldIsRef(leU64(val(k))) {
			t.Fatalf("value %x of key %d is not ref-shaped to the old predicate", val(k), k)
		}
		if _, _, err := w.Put(k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.SlabStats(); s.ChunksAlloced != 0 || s.Pages != 0 {
		t.Fatalf("%d old-ref-shaped values took %d chunks in %d pages", n, s.ChunksAlloced, s.Pages)
	}
	readBack := func(how string, st *Store) {
		t.Helper()
		w := st.NewWorker(0)
		for k := uint64(1); k <= n; k++ {
			if got, ok := w.Get(k); !ok || !bytes.Equal(got, val(k)) {
				t.Fatalf("after %s: Get(%d) = %x, %v, want %x", how, k, got, ok, val(k))
			}
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", how, err)
		}
		if s := st.SlabStats(); s.ChunksAlloced != 0 || s.Extents != 0 {
			t.Fatalf("after %s: %d chunks, %d extents", how, s.ChunksAlloced, s.Extents)
		}
	}

	st.SimulateCrash()
	re, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if r := re.RecoveryStats(); r.PagesSwept != 0 {
		t.Fatalf("Reopen swept %d pages", r.PagesSwept)
	}
	readBack("Reopen", re)

	phys, pairs := t.TempDir(), t.TempDir()
	if err := re.Save(phys); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(phys)
	if err != nil {
		t.Fatal(err)
	}
	readBack("Save→Load", ld)

	if err := re.SaveOnline(pairs); err != nil {
		t.Fatal(err)
	}
	o.Shards = 3
	if err := writeMeta(pairs, o, "pairs"); err != nil {
		t.Fatal(err)
	}
	ld3, err := Load(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if ld3.NumShards() != 3 || ld3.RecoveryStats().KeysBulkLoaded != n {
		t.Fatalf("pairs load: %d shards, %d keys", ld3.NumShards(), ld3.RecoveryStats().KeysBulkLoaded)
	}
	readBack("a pairs load into 3 shards", ld3)
}

// TestLoadRejectsCyclicValueChain: a forged image whose chained value
// loops back on itself, or leaves the pools, fails Load with
// pmem.ErrBadImage instead of spinning in the startup sweep. So does one
// with a node word that is a well-formed ref to no chunk of a slab page
// that holds it, instead of loading and panicking the first Get.
func TestLoadRejectsCyclicValueChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		next func(head uint64) uint64 // the head segment's forged next pointer, or nil
		word func(ref uint64) uint64  // a forged node word made from key 1's 100-byte ref, or nil
	}{
		{"cycle", func(head uint64) uint64 { return head }, nil},
		{"unattached pool", func(uint64) uint64 { return 5<<48 | 1<<32 }, nil},
		{"unknown chunk", nil, func(uint64) uint64 { return 1<<63 | 8<<48 | 250<<24 | 5 }},
		{"past the cursor", nil, func(ref uint64) uint64 { return ref&^(1<<24-1) | (1<<12 - 64) }},
		{"off a slot boundary", nil, func(ref uint64) uint64 { return ref + 4 }},
		{"length overruns the class", nil, func(ref uint64) uint64 { return ref&^(0x7fff<<48) | 1000<<48 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Create(testOptions())
			if err != nil {
				t.Fatal(err)
			}
			w := st.NewWorker(0)
			for k := uint64(1); k <= 20; k++ {
				if _, _, err := w.Put(k, patVal(k, 0, 100)); err != nil {
					t.Fatal(err)
				}
			}
			long := patVal(7, 1, 3*st.shards[0].vals.MaxSingle()) // four segments
			if _, _, err := w.Put(7, long); err != nil {
				t.Fatal(err)
			}
			st.drainReclaimQuiesced()
			ctx := exec.NewCtx(0, 0)
			word, _ := st.ShardList(0).Get(ctx, 7)
			if ref := slab.FromWord(word); !st.shards[0].vals.IsRef(word) || !ref.Chained() {
				t.Fatalf("key 7's word %#x is not a chained ref", word)
			}
			if tc.next != nil {
				// The ref's address as a riv pointer: pool, biased chunk, offset.
				head := word>>40&0xff<<48 | word>>24&0xffff<<32 | word&(1<<24-1)
				pool, off := st.shards[0].space.Resolve(riv.FromWord(head))
				pool.Store(off+1, tc.next(head), nil)
				pool.Persist(off+1, 1, nil)
			} else {
				ref, _ := st.ShardList(0).Get(ctx, 1)
				forged := tc.word(ref)
				if !st.shards[0].vals.IsRef(forged) {
					t.Fatalf("forged word %#x is not ref-shaped", forged)
				}
				if _, _, err := st.ShardList(0).Insert(ctx, 500, forged); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			if err := st.Save(dir); err != nil {
				t.Fatal(err)
			}

			done := make(chan error, 1)
			t0 := time.Now()
			go func() {
				_, err := Load(dir)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, pmem.ErrBadImage) {
					t.Fatalf("Load of a forged image: %v, want pmem.ErrBadImage", err)
				}
				t.Logf("Load failed in %v: %v", time.Since(t0), err)
			case <-time.After(5 * time.Second):
				t.Fatal("Load of a forged image still running after 5 s")
			}
		})
	}
}
