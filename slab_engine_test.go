package upskiplist

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"upskiplist/internal/alloc"
	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/slab"
)

// Engine-level tests of the slab value arena: the crash contracts
// (old-or-new values, leak sweep at startup) and the reader contracts
// (snapshots pin pre-overwrite bytes) as observed through the public
// API, complementing the unit tests in internal/slab.

// genVal builds the deterministic value for (key, generation): size and
// content both derive from the pair, so generations land in different
// slab classes and a torn or misdirected read cannot produce a valid
// pattern.
func genVal(key, gen uint64) []byte {
	n := int(17 + (key*31+gen*97)%400)
	return patVal(key, gen, n)
}

// fixVal is genVal with the size derived from the key alone, for tests
// whose assertions need successive generations of a key to stay in the
// same slab class (chunk-reuse accounting).
func fixVal(key, gen uint64) []byte {
	n := int(17 + (key*31)%400)
	return patVal(key, gen, n)
}

func patVal(key, gen uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(key>>(8*(uint(i)%8))) ^ byte(gen*151+uint64(i)*29)
	}
	return b
}

// TestTornValuePublishCrash: overwrite every key's variable-size value
// while crash-tracking, crash with partial cache eviction (each line
// independently survives or reverts), reopen, and require every key to
// read back EXACTLY its old or its new bytes. The write-then-publish
// ordering makes intermediate states impossible: the node word flips
// atomically between refs whose bytes were persisted first.
func TestTornValuePublishCrash(t *testing.T) {
	const n = 120
	c := &crashStore{}
	for trial := uint64(0); trial < 5; trial++ {
		crashstep.Run(t, crashstep.Scenario{
			Evict: 0.5, Seed: 0xC0FFEE + trial,
			Setup: func(t *testing.T) []*pmem.Pool {
				pools := c.create(t, testOptions())
				for k := uint64(1); k <= n; k++ {
					if _, _, err := c.w.Put(k, genVal(k, 0)); err != nil {
						t.Fatal(err)
					}
				}
				return pools
			},
			Op: func(t *testing.T) {
				for k := uint64(1); k <= n; k++ {
					if _, _, err := c.w.Put(k, genVal(k, 1)); err != nil {
						t.Fatal(err)
					}
				}
			},
			Recover: c.restart,
			Check: func(t *testing.T, _ crashstep.Point) {
				for k := uint64(1); k <= n; k++ {
					got, ok := c.w.Get(k)
					if !ok {
						t.Fatalf("trial %d: key %d lost in crash", trial, k)
					}
					if !bytes.Equal(got, genVal(k, 0)) && !bytes.Equal(got, genVal(k, 1)) {
						t.Fatalf("trial %d: key %d torn: %d bytes, %x...", trial, k, len(got), got[:min(8, len(got))])
					}
				}
			},
		})
	}
}

// TestStartupSweepReclaimsLeakedChunks: overwriting a value retires its
// old chunk into the volatile limbo; a crash loses the limbo, leaving
// chunks that look allocated but that no node references — the exact
// shape of a leaked allocation. The startup sweep must relink every one
// of them, and reuse must come from the relinked chunks rather than new
// page growth.
func TestStartupSweepReclaimsLeakedChunks(t *testing.T) {
	o := testOptions()
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	const n = 64
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w.Put(k, fixVal(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites allocate fresh chunks and retire the old ones into
	// limbo. Everything durable is flushed (no tracking), so the crash
	// below loses only the volatile limbo list.
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w.Put(k, fixVal(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.SlabStats().LimboChunks; got == 0 {
		t.Fatal("expected retired chunks in limbo before the crash")
	}
	st.SimulateCrash()

	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	stats := st2.SlabStats()
	if stats.SweepRelinked < n {
		t.Fatalf("sweep relinked %d chunks, want >= %d (the lost limbo)", stats.SweepRelinked, n)
	}
	// The image must stay consistent: every key reads its newest bytes.
	w2 := st2.NewWorker(0)
	for k := uint64(1); k <= n; k++ {
		got, ok := w2.Get(k)
		if !ok || !bytes.Equal(got, fixVal(k, 1)) {
			t.Fatalf("key %d: wrong bytes after sweep (found=%v)", k, ok)
		}
	}
	// Reuse check: the next generation of overwrites should be fed from
	// the relinked chunks, not from fresh slab pages.
	census := st2.BlockCensus()
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w2.Put(k, fixVal(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if after := st2.BlockCensus(); after.Slab > census.Slab {
		t.Fatalf("overwrites grew slab pages %d -> %d despite %d relinked chunks",
			census.Slab, after.Slab, stats.SweepRelinked)
	}
	if after := st2.BlockCensus(); after.Total != census.Total {
		t.Fatalf("census total moved %d -> %d across pure overwrites", census.Total, after.Total)
	}
}

// TestSnapshotReadsPreOverwriteBytes: a snapshot opened before a wave of
// overwrites and removes must keep returning the original bytes — the
// superseded chunks are epoch-pinned in limbo, not freed — while the
// live view moves on.
func TestSnapshotReadsPreOverwriteBytes(t *testing.T) {
	o := testOptions()
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	const n = 80
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w.Put(k, genVal(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()

	// Overwrite with different-size bytes (new chunks, old ones retired)
	// and remove a stripe entirely.
	for k := uint64(1); k <= n; k++ {
		if k%5 == 0 {
			if _, _, err := w.Remove(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, _, err := w.Put(k, genVal(k, 1)); err != nil {
			t.Fatal(err)
		}
	}

	for k := uint64(1); k <= n; k++ {
		got, ok := sn.Get(k)
		if !ok {
			t.Fatalf("snapshot lost key %d after overwrite/remove", k)
		}
		if !bytes.Equal(got, genVal(k, 0)) {
			t.Fatalf("snapshot key %d returned post-overwrite bytes", k)
		}
	}
	// The live view sees the new state.
	for k := uint64(1); k <= n; k++ {
		got, ok := w.Get(k)
		if k%5 == 0 {
			if ok {
				t.Fatalf("live view still has removed key %d", k)
			}
			continue
		}
		if !ok || !bytes.Equal(got, genVal(k, 1)) {
			t.Fatalf("live key %d: wrong bytes (found=%v)", k, ok)
		}
	}
	// Scan through the snapshot must stream the original bytes too.
	k := uint64(1)
	if err := sn.Scan(KeyMin, KeyMax, func(key uint64, val []byte) bool {
		if key != k || !bytes.Equal(val, genVal(key, 0)) {
			t.Fatalf("snapshot scan at key %d (want %d): stale-view violation", key, k)
		}
		k++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if k != n+1 {
		t.Fatalf("snapshot scan saw %d keys, want %d", k-1, n)
	}
}

// TestValueChunksRecycleWithoutReclaimer: overwritten value chunks free
// by grace period on a store that never starts the node reclaimer. Every
// list has its era domain from Create, so the slab limbo has eras to wait
// out: 40 rounds of 1 KiB overwrites of 500 keys must free chunks before
// any Save or Compact drains the limbo, and the slab's block footprint
// after round 40 must be no larger than after round 2.
func TestValueChunksRecycleWithoutReclaimer(t *testing.T) {
	const keys, rounds = 500, 40
	o := DefaultOptions()
	o.PoolWords = 1 << 23 // room for every round's chunks when nothing is freed
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	val := make([]byte, 1024)
	put := func() {
		for k := uint64(1); k <= keys; k++ {
			if _, _, err := w.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	put()
	var slab2 int
	for r := 1; r <= rounds; r++ {
		val[0] = byte(r)
		put()
		if r == 2 {
			slab2 = st.BlockCensus().Slab
		}
	}
	freed, slab40 := st.SlabStats().ChunksFreed, st.BlockCensus().Slab
	t.Logf("chunks freed %d; slab blocks %d after round 2, %d after round %d", freed, slab2, slab40, rounds)
	if freed == 0 {
		t.Error("no value chunk freed without the node reclaimer")
	}
	if slab40 > slab2 {
		t.Errorf("slab footprint grew from %d blocks after round 2 to %d after round %d", slab2, slab40, rounds)
	}
}

// TestMixedSizeChurnSoak hammers the arena from several goroutines with
// put/get/remove traffic across all size classes (empty through chained
// multi-block values) and verifies every read observes a complete,
// self-consistent generation. Run with -race this doubles as the slab
// concurrency soak.
func TestMixedSizeChurnSoak(t *testing.T) {
	o := testOptions()
	o.NumThreads = 4
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	st.EnableOnlineReclaim()
	defer st.PauseReclaim()
	const (
		workers = 4
		keys    = 200
		rounds  = 400
	)
	sizes := []int{0, 1, 8, 24, 64, 256, 1024}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := st.NewWorker(id)
			rng := rand.New(rand.NewSource(int64(id) * 7919))
			// Each worker owns a key stripe, so churn is contended at the
			// node level but verifiable per key.
			for r := 0; r < rounds; r++ {
				k := uint64(id*keys + rng.Intn(keys) + 1)
				switch rng.Intn(4) {
				case 0:
					if _, _, err := w.Remove(k); err != nil {
						errs <- err
						return
					}
				default:
					gen := uint64(rng.Intn(8))
					sz := sizes[rng.Intn(len(sizes))]
					val := bytes.Repeat([]byte{byte(k) ^ byte(gen)}, sz)
					if _, _, err := w.Put(k, val); err != nil {
						errs <- fmt.Errorf("put key %d size %d: %w", k, sz, err)
						return
					}
				}
				if got, ok := w.Get(uint64(id*keys + rng.Intn(keys) + 1)); ok && len(got) > 0 {
					// Self-consistency: every byte of a value is the same
					// pattern byte, so a torn or misrouted read shows up.
					for _, b := range got[1:] {
						if b != got[0] {
							errs <- fmt.Errorf("inconsistent value bytes %x vs %x", b, got[0])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := st.NewWorker(0).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestValueRoundTripEveryLength puts one key per value length from 0 to
// 4200 bytes, plus 64 KiB and 1 MiB, and reads each back through Get and
// through GetInto appended to a caller's buffer.
func TestValueRoundTripEveryLength(t *testing.T) {
	o := DefaultOptions()
	o.PoolWords = 1 << 23
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	lengths := []int{64 << 10, MaxValueLen}
	for n := 0; n <= 4200; n++ {
		lengths = append(lengths, n)
	}
	for i, n := range lengths {
		if _, existed, err := w.Put(uint64(i+1), patVal(uint64(i+1), 3, n)); err != nil || existed {
			t.Fatalf("Put(%d bytes): existed=%v err=%v", n, existed, err)
		}
	}
	buf := make([]byte, 0, MaxValueLen+8)
	for i, n := range lengths {
		want := patVal(uint64(i+1), 3, n)
		if got, ok := w.Get(uint64(i + 1)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get of the %d-byte value: found=%v, %d bytes", n, ok, len(got))
		}
		buf = append(buf[:0], "head"...)
		buf, ok := w.GetInto(uint64(i+1), buf)
		if !ok || string(buf[:4]) != "head" || !bytes.Equal(buf[4:], want) {
			t.Fatalf("GetInto of the %d-byte value: found=%v, %d bytes", n, ok, len(buf)-4)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtEveryStepOfGrowingPut crashes a 1 KiB overwrite at every
// pmem access it makes (crashValueOps), the overwrite being one that
// finds its class's free list empty and every extent full, so that it
// claims an allocator chunk for the arena and carves a page before it
// can store a byte.
func TestCrashAtEveryStepOfGrowingPut(t *testing.T) {
	const target = uint64(1)
	oldVal, newVal := patVal(target, 0, 1024), patVal(target, 1, 1024)
	c := &crashStore{}

	// build fills a fresh store until the next 1 KiB chunk needs a new
	// extent: the target key first, then fillers. It returns how many
	// fillers that took when told to find out (fillers < 0).
	build := func(t *testing.T, fillers int) int {
		c.create(t, testOptions())
		if _, _, err := c.w.Put(target, oldVal); err != nil {
			t.Fatal(err)
		}
		for i := 0; fillers < 0 || i < fillers; i++ {
			before := c.SlabStats()
			if _, _, err := c.w.Put(uint64(1000+i), patVal(uint64(i), 0, 1024)); err != nil {
				t.Fatal(err)
			}
			if after := c.SlabStats(); fillers < 0 && after.Extents > before.Extents && after.Pages > before.Pages {
				return i
			}
		}
		return fillers
	}
	fillers := build(t, -1)
	// The overwrite takes 44 pmem steps (50 while a traversal loaded a
	// node's header words one at a time); fewer cannot have grown
	// anything.
	n := crashValueOps(t, c, func(t *testing.T) { build(t, fillers) }, target, [][]byte{oldVal, newVal}, 44, func(t *testing.T, run func()) {
		before := c.SlabStats()
		run()
		if after := c.SlabStats(); after.Extents != before.Extents+1 || after.Pages != before.Pages+1 {
			t.Fatalf("the overwrite grew %d extents and %d pages, want one of each", after.Extents-before.Extents, after.Pages-before.Pages)
		}
	})
	t.Logf("crashed the overwrite at each of its %d pmem steps (%d fillers)", n-1, fillers)
}

// TestChainedPutOnFullPool: a 3-segment Put that runs out of pool after
// its first segment fails with alloc.ErrPoolFull and leaves no trace —
// the key reads its old value, the arena's chunks-in-use count and the
// block census stand where they stood — and the rolled-back segment
// serves the next largest-class put without a grow.
func TestChainedPutOnFullPool(t *testing.T) {
	o := testOptions()
	o.PoolWords = 1 << 17
	o.MaxChunks = 16
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	old := patVal(1, 0, 100)
	if _, _, err := w.Put(1, old); err != nil {
		t.Fatal(err)
	}
	// Fill the arena with largest-class chunks no key names, then free
	// one: the pool has room for exactly one segment.
	vals, ctx := st.shards[0].vals, exec.NewCtx(0, 0)
	big := patVal(2, 0, vals.MaxSingle())
	var fill []slab.Ref
	for {
		ref, err := vals.Put(ctx, big, nil)
		if errors.Is(err, alloc.ErrPoolFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fill = append(fill, ref)
	}
	vals.Retire(fill[0])
	vals.DrainQuiesced(ctx.Mem)

	inUse := func() uint64 { s := st.SlabStats(); return s.ChunksAlloced - s.ChunksFreed }
	before, census := inUse(), st.BlockCensus()
	if _, _, err := w.Put(1, patVal(1, 1, 2*vals.MaxSingle()+100)); !errors.Is(err, alloc.ErrPoolFull) {
		t.Fatalf("3-segment put with room for one segment: %v, want alloc.ErrPoolFull", err)
	}
	if got, ok := w.Get(1); !ok || !bytes.Equal(got, old) {
		t.Fatalf("key 1 after the failed put: %d bytes, found=%v; want its old 100", len(got), ok)
	}
	if after := inUse(); after != before {
		t.Fatalf("chunks in use: %d before the failed put, %d after", before, after)
	}
	if c := st.BlockCensus(); c != census {
		t.Fatalf("census moved across the failed put: %+v -> %+v", census, c)
	}
	if ref, err := vals.Put(ctx, big, nil); err != nil || ref != fill[0] {
		t.Fatalf("next largest-class put: %#x, %v; want the rolled-back segment %#x", ref.Word(), err, fill[0].Word())
	}
	if c := st.BlockCensus(); c != census {
		t.Fatalf("the put after the rollback grew the census: %+v -> %+v", census, c)
	}
}
