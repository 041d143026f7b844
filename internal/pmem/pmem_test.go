package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func mustPool(t testing.TB, words uint64) *Pool {
	t.Helper()
	p, err := NewPool(Config{ID: 1, Words: words, HomeNode: -1})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestNewPoolRoundsUpToLine(t *testing.T) {
	p, err := NewPool(Config{Words: LineWords + 1, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2*LineWords {
		t.Fatalf("size = %d, want %d", p.Size(), 2*LineWords)
	}
}

func TestNewPoolTooSmall(t *testing.T) {
	if _, err := NewPool(Config{Words: 0}); err == nil {
		t.Fatal("expected error for zero-size pool")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	p := mustPool(t, 1024)
	p.Store(17, 0xdeadbeef, nil)
	if got := p.Load(17, nil); got != 0xdeadbeef {
		t.Fatalf("Load = %#x, want 0xdeadbeef", got)
	}
}

func TestCASSemantics(t *testing.T) {
	p := mustPool(t, 64)
	p.Store(3, 10, nil)
	if !p.CAS(3, 10, 20, nil) {
		t.Fatal("CAS with matching old value failed")
	}
	if p.CAS(3, 10, 30, nil) {
		t.Fatal("CAS with stale old value succeeded")
	}
	if got := p.Load(3, nil); got != 20 {
		t.Fatalf("value = %d, want 20", got)
	}
}

func TestAdd(t *testing.T) {
	p := mustPool(t, 64)
	p.Store(0, 5, nil)
	if got := p.Add(0, 7, nil); got != 12 {
		t.Fatalf("Add returned %d, want 12", got)
	}
}

func TestCrashRevertsUnflushedWrites(t *testing.T) {
	p := mustPool(t, 1024)
	p.Store(8, 111, nil)
	p.Persist(8, 1, nil)
	p.EnableTracking()

	p.Store(8, 222, nil)  // same line, unflushed
	p.Store(16, 333, nil) // different line, unflushed
	p.Store(24, 444, nil)
	p.Persist(24, 1, nil) // flushed: survives

	if n := p.Crash(); n != 2 {
		t.Fatalf("Crash reverted %d lines, want 2", n)
	}
	if got := p.Load(8, nil); got != 111 {
		t.Fatalf("word 8 = %d, want persisted 111", got)
	}
	if got := p.Load(16, nil); got != 0 {
		t.Fatalf("word 16 = %d, want 0 (write lost)", got)
	}
	if got := p.Load(24, nil); got != 444 {
		t.Fatalf("word 24 = %d, want flushed 444", got)
	}
}

func TestCrashRevertsCAS(t *testing.T) {
	p := mustPool(t, 64)
	p.Store(0, 1, nil)
	p.Persist(0, 1, nil)
	p.EnableTracking()
	if !p.CAS(0, 1, 2, nil) {
		t.Fatal("CAS failed")
	}
	p.Crash()
	if got := p.Load(0, nil); got != 1 {
		t.Fatalf("word 0 = %d after crash, want 1", got)
	}
}

func TestPersistRangeCoversMultipleLines(t *testing.T) {
	p := mustPool(t, 1024)
	p.EnableTracking()
	for i := uint64(0); i < 32; i++ {
		p.Store(i, i+1, nil)
	}
	p.Persist(0, 32, nil) // 4 lines
	if d := p.DirtyLines(); d != 0 {
		t.Fatalf("dirty lines = %d after range persist, want 0", d)
	}
	p.Crash()
	for i := uint64(0); i < 32; i++ {
		if got := p.Load(i, nil); got != i+1 {
			t.Fatalf("word %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestPersistLinesCrashSemantics(t *testing.T) {
	p := mustPool(t, 8192)
	p.EnableTracking()
	// Dirty lines spread across several shadow shards (line index mod 64
	// picks the shard), plus one line left unflushed.
	dirty := []uint64{0, 1, 65, 130, 700}
	for _, line := range dirty {
		p.Store(line<<lineShift, line+1, nil)
	}
	p.Store(300<<lineShift, 999, nil) // stays unflushed
	lines := append([]uint64(nil), dirty...)
	lines = append(lines, 0, 65) // duplicates must be tolerated
	p.PersistLines(lines, nil)
	if n := p.Crash(); n != 1 {
		t.Fatalf("Crash reverted %d lines, want 1 (only the unflushed one)", n)
	}
	for _, line := range dirty {
		if got := p.Load(line<<lineShift, nil); got != line+1 {
			t.Fatalf("line %d word = %d, want %d", line, got, line+1)
		}
	}
	if got := p.Load(300<<lineShift, nil); got != 0 {
		t.Fatalf("unflushed line survived: %d", got)
	}
}

func TestPersistLinesDedupsAndSingleFence(t *testing.T) {
	p := mustPool(t, 1024)
	before := p.Stats().Snapshot()
	p.PersistLines([]uint64{5, 3, 5, 3, 5, 9}, nil)
	after := p.Stats().Snapshot()
	if got := after.Flushes - before.Flushes; got != 3 {
		t.Fatalf("flushes = %d, want 3 (deduped)", got)
	}
	if got := after.Fences - before.Fences; got != 1 {
		t.Fatalf("fences = %d, want 1 (single trailing fence)", got)
	}
	if p.PersistLines(nil, nil); p.Stats().Snapshot().Fences != after.Fences {
		t.Fatal("empty PersistLines issued a fence")
	}
}

func TestBatchAccumulatesAndResets(t *testing.T) {
	p := mustPool(t, 1024)
	var b Batch
	b.Flush(nil) // empty flush is a no-op
	before := p.Stats().Snapshot()
	b.Add(p, 0, 20, nil)  // lines 0..2
	b.Add(p, 16, 1, nil)  // line 2 again
	b.Add(p, 800, 0, nil) // n=0 still covers one word's line
	b.Flush(nil)
	after := p.Stats().Snapshot()
	if got := after.Flushes - before.Flushes; got != 4 {
		t.Fatalf("flushes = %d, want 4 (lines 0,1,2,100)", got)
	}
	if got := after.Fences - before.Fences; got != 1 {
		t.Fatalf("fences = %d, want 1", got)
	}
	// The batch must be reusable after Flush.
	b.Add(p, 0, 1, nil)
	b.Flush(nil)
	if got := p.Stats().Snapshot().Flushes - after.Flushes; got != 1 {
		t.Fatalf("reused batch flushed %d lines, want 1", got)
	}
}

func TestBatchPoolSwitchFlushesPending(t *testing.T) {
	p1 := mustPool(t, 1024)
	p2, err := NewPool(Config{ID: 2, Words: 1024, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	p1.EnableTracking()
	p1.Store(0, 42, nil)
	var b Batch
	b.Add(p1, 0, 1, nil)
	b.Add(p2, 0, 1, nil) // must flush p1's pending line first
	if d := p1.DirtyLines(); d != 0 {
		t.Fatalf("pool switch left %d dirty lines in p1", d)
	}
	b.Flush(nil)
	if got := p2.Stats().Snapshot().Flushes; got != 1 {
		t.Fatalf("p2 flushes = %d, want 1", got)
	}
}

func TestTrackingShadowMapsReusedAfterCrash(t *testing.T) {
	// Crash and DisableTracking clear() the shard maps in place instead
	// of reallocating; tracking must keep working over the same maps.
	p := mustPool(t, 1024)
	p.EnableTracking()
	for round := 0; round < 3; round++ {
		p.Store(8, uint64(round)+100, nil)
		if n := p.Crash(); n != 1 {
			t.Fatalf("round %d: Crash reverted %d lines, want 1", round, n)
		}
		if got := p.Load(8, nil); got != 0 {
			t.Fatalf("round %d: word 8 = %d, want 0", round, got)
		}
	}
	p.DisableTracking()
	for i := range p.shards {
		if p.shards[i].lines == nil {
			t.Fatal("DisableTracking nilled a shard map")
		}
		if len(p.shards[i].lines) != 0 {
			t.Fatal("DisableTracking left shadow entries")
		}
	}
	p.EnableTracking()
	p.Store(16, 7, nil)
	if d := p.DirtyLines(); d != 1 {
		t.Fatalf("tracking broken after map reuse: dirty = %d", d)
	}
}

func TestPartialLinePersistKeepsWholeLine(t *testing.T) {
	// Flushing any word of a line persists the whole line, as on real
	// hardware.
	p := mustPool(t, 64)
	p.EnableTracking()
	p.Store(0, 10, nil)
	p.Store(7, 70, nil) // same line
	p.Persist(3, 1, nil)
	p.Crash()
	if p.Load(0, nil) != 10 || p.Load(7, nil) != 70 {
		t.Fatal("whole-line persist did not keep both words")
	}
}

func TestDisableTrackingDropsShadow(t *testing.T) {
	p := mustPool(t, 64)
	p.EnableTracking()
	p.Store(0, 9, nil)
	p.DisableTracking()
	if d := p.DirtyLines(); d != 0 {
		t.Fatalf("dirty lines = %d, want 0", d)
	}
	if p.Tracking() {
		t.Fatal("still tracking after DisableTracking")
	}
}

func TestDirtyLinesCount(t *testing.T) {
	p := mustPool(t, 1024)
	p.EnableTracking()
	p.Store(0, 1, nil)
	p.Store(1, 2, nil) // same line
	p.Store(64, 3, nil)
	if d := p.DirtyLines(); d != 2 {
		t.Fatalf("dirty lines = %d, want 2", d)
	}
}

func TestStatsCounting(t *testing.T) {
	p := mustPool(t, 64)
	p.Load(0, nil)
	p.Store(0, 1, nil)
	p.CAS(0, 1, 2, nil)
	p.Persist(0, 1, nil)
	s := p.Stats().Snapshot()
	if s.Loads != 1 || s.Stores != 1 || s.CASes != 1 || s.Flushes != 1 {
		t.Fatalf("unexpected stats: %v", s)
	}
	if s.Fences == 0 {
		t.Fatal("Persist should fence")
	}
}

func TestRemoteCostAccounting(t *testing.T) {
	p, err := NewPool(Config{Words: 64, HomeNode: 2, Cost: &CostModel{RemotePenalty: 1, LoadPenalty: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Each accessor's counts reach the pool's Stats when it publishes.
	load := func(off uint64, acc *Acc) {
		p.Load(off, acc)
		acc.Publish()
	}
	load(0, NewAcc(2)) // local
	if got := p.Stats().Snapshot().RemoteOps; got != 0 {
		t.Fatalf("local access counted as remote: %d", got)
	}
	load(0, NewAcc(0)) // remote (fresh accessor: line-cache miss)
	if got := p.Stats().Snapshot().RemoteOps; got != 1 {
		t.Fatalf("remote ops = %d, want 1", got)
	}
	// A second load by the same accessor hits its line cache: no second
	// remote charge.
	acc := NewAcc(0)
	load(0, acc)
	load(1, acc)
	if got := p.Stats().Snapshot().RemoteOps; got != 2 {
		t.Fatalf("remote ops = %d, want 2 (cache hit must not recharge)", got)
	}
}

func TestStripedNodeOwnership(t *testing.T) {
	p, err := NewPool(Config{Words: 8 * LineWords, StripeNodes: 4, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.HomeNode() != -1 {
		t.Fatalf("striped pool HomeNode = %d, want -1", p.HomeNode())
	}
	seen := map[int]bool{}
	for line := uint64(0); line < 8; line++ {
		seen[p.nodeOf(line<<lineShift)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("striping touched %d nodes, want 4", len(seen))
	}
}

func TestWriteToReadPoolRoundTrip(t *testing.T) {
	p := mustPool(t, 256)
	for i := uint64(0); i < 256; i++ {
		p.Store(i, i*i+3, nil)
	}
	p.Persist(0, 256, nil)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPool(&buf, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID() != p.ID() || q.Size() != p.Size() {
		t.Fatalf("identity mismatch: id=%d size=%d", q.ID(), q.Size())
	}
	for i := uint64(0); i < 256; i++ {
		if q.Load(i, nil) != i*i+3 {
			t.Fatalf("word %d mismatch", i)
		}
	}
}

func TestWriteToSerializesDurableImage(t *testing.T) {
	// Unflushed writes must not appear in the serialized image.
	p := mustPool(t, 64)
	p.Store(0, 42, nil)
	p.Persist(0, 1, nil)
	p.EnableTracking()
	p.Store(0, 99, nil) // unflushed
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPool(&buf, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Load(0, nil); got != 42 {
		t.Fatalf("serialized word 0 = %d, want durable 42", got)
	}
	// In-memory (volatile) view still sees the new value.
	if got := p.Load(0, nil); got != 99 {
		t.Fatalf("volatile word 0 = %d, want 99", got)
	}
}

func TestReadPoolRejectsGarbage(t *testing.T) {
	if _, err := ReadPool(bytes.NewReader([]byte("not a pool image at all....")), -1, 0, nil); err == nil {
		t.Fatal("expected error for garbage image")
	}
}

// TestReadPoolForgedSize reads an image whose header claims 2^27 words
// (1 GiB) in front of a one-line body. ReadPool must fail with
// ErrBadImage having allocated about what the body holds, not the claim.
func TestReadPoolForgedSize(t *testing.T) {
	var img bytes.Buffer
	if _, err := mustPool(t, LineWords).WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	forged := img.Bytes()
	binary.LittleEndian.PutUint64(forged[16:], 1<<27)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadPool(bytes.NewReader(forged), -1, 0, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadImage) {
		t.Fatalf("forged size: err = %v, want ErrBadImage", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("reading a forged 1 GiB header allocated %d bytes, want < 16 MiB", grew)
	}
}

// FuzzReadPool: ReadPool never panics on any input, rejects what it
// cannot read with ErrBadImage, and a pool it does read writes back
// (WriteTo) byte-identical to the image it came from.
func FuzzReadPool(f *testing.F) {
	var img bytes.Buffer
	p := mustPool(f, 2*LineWords)
	p.Store(3, 0xdeadbeef, nil)
	if _, err := p.WriteTo(&img); err != nil {
		f.Fatal(err)
	}
	f.Add(img.Bytes())
	f.Add(img.Bytes()[:40])
	forged := bytes.Clone(img.Bytes())
	binary.LittleEndian.PutUint64(forged[16:], 1<<27)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPool(bytes.NewReader(data), -1, 0, nil)
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("err = %v, want ErrBadImage", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("a %d-word pool read from %d bytes wrote back %d different bytes", p.Size(), len(data), out.Len())
		}
	})
}

func TestCheckRange(t *testing.T) {
	p := mustPool(t, 64)
	if err := p.CheckRange(0, 64); err != nil {
		t.Fatalf("in-range check failed: %v", err)
	}
	if err := p.CheckRange(60, 8); err == nil {
		t.Fatal("out-of-range check passed")
	}
	if err := p.CheckRange(64, 1); err == nil {
		t.Fatal("offset at size passed")
	}
}

func TestConcurrentCASIncrement(t *testing.T) {
	p := mustPool(t, 64)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					old := p.Load(0, nil)
					if p.CAS(0, old, old+1, nil) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Load(0, nil); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestConcurrentTrackedWritesThenCrash(t *testing.T) {
	p := mustPool(t, 4096)
	// Persist a known baseline.
	for i := uint64(0); i < 4096; i++ {
		p.Store(i, 7, nil)
	}
	p.Persist(0, 4096, nil)
	p.EnableTracking()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				off := uint64(rng.Intn(4096))
				p.Store(off, uint64(rng.Int63()), nil)
				if rng.Intn(4) == 0 {
					p.Persist(off, 1, nil)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	p.Crash()
	// Every reverted (non-persisted) line must hold the baseline; every
	// persisted line holds whatever was last in it. The invariant we can
	// check: no word is in a "torn" state — it is either 7 or some value
	// that was stored (i.e. not 0, since stores never write 0 here and
	// rand.Int63 is never 7 with meaningful probability... instead just
	// verify dirty-line table is empty and pool is readable).
	if d := p.DirtyLines(); d != 0 {
		t.Fatalf("dirty lines after crash = %d, want 0", d)
	}
}

func TestInjectorFiresAndKeepsFiring(t *testing.T) {
	p := mustPool(t, 64)
	ci := NewCountdownInjector(3)
	p.SetInjector(ci)

	ops := 0
	crashed := 0
	run := func(f func()) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(CrashSignal); !ok {
					panic(r)
				}
				crashed++
				return
			}
			ops++
		}()
		f()
	}
	run(func() { p.Load(0, nil) })
	run(func() { p.Store(0, 1, nil) })
	if ops != 2 || crashed != 0 {
		t.Fatalf("premature crash: ops=%d crashed=%d", ops, crashed)
	}
	run(func() { p.Load(0, nil) }) // 3rd access fires
	run(func() { p.Load(0, nil) }) // keeps firing
	if crashed != 2 {
		t.Fatalf("crashed = %d, want 2", crashed)
	}
	if !ci.Tripped() {
		t.Fatal("injector not tripped")
	}
	ci.Disarm()
	run(func() { p.Load(0, nil) })
	if ops != 3 {
		t.Fatalf("disarm did not stop firing: ops=%d", ops)
	}
	p.SetInjector(nil)
	p.Load(0, nil) // must not panic
}

func TestPersistZeroLengthFlushesOneLine(t *testing.T) {
	p := mustPool(t, 64)
	p.EnableTracking()
	p.Store(5, 1, nil)
	p.Persist(5, 0, nil)
	if d := p.DirtyLines(); d != 0 {
		t.Fatalf("dirty lines = %d, want 0", d)
	}
}

// Property: after arbitrary store/persist interleavings followed by a
// crash, every word equals either its last persisted value or (if never
// persisted since baseline) the baseline.
func TestQuickCrashConsistency(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		p := mustPool(t, 256)
		for i := uint64(0); i < 256; i++ {
			p.Store(i, 1000+i, nil)
		}
		p.Persist(0, 256, nil)
		p.EnableTracking()

		persisted := make([]uint64, 256)
		volatileVals := make([]uint64, 256)
		for i := range persisted {
			persisted[i] = 1000 + uint64(i)
			volatileVals[i] = persisted[i]
		}
		lineDirty := make([]bool, 256/LineWords)

		rng := rand.New(rand.NewSource(seed))
		for _, b := range opsRaw {
			off := uint64(rng.Intn(256))
			if b%3 == 0 {
				// persist the line containing off
				line := off / LineWords
				for w := line * LineWords; w < (line+1)*LineWords; w++ {
					persisted[w] = volatileVals[w]
				}
				lineDirty[line] = false
				p.Persist(off, 1, nil)
			} else {
				v := rng.Uint64()
				volatileVals[off] = v
				lineDirty[off/LineWords] = true
				p.Store(off, v, nil)
			}
		}
		p.Crash()
		for i := uint64(0); i < 256; i++ {
			if p.Load(i, nil) != persisted[i] {
				return false
			}
		}
		_ = lineDirty
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPoolLoad(b *testing.B) {
	p := mustPool(b, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Load(uint64(i)&0xffff, nil)
	}
}

func BenchmarkPoolStorePersist(b *testing.B) {
	p := mustPool(b, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := uint64(i) & 0xffff
		p.Store(off, uint64(i), nil)
		p.Persist(off, 1, nil)
	}
}

func BenchmarkPoolTrackedStore(b *testing.B) {
	p := mustPool(b, 1<<16)
	p.EnableTracking()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := uint64(i) & 0xffff
		p.Store(off, uint64(i), nil)
		if i&7 == 7 {
			p.Persist(off, 1, nil)
		}
	}
}

func TestFlushContentionTracksDepth(t *testing.T) {
	p, err := NewPool(Config{Words: 1 << 12, HomeNode: -1,
		Cost: &CostModel{FlushPenalty: 1, FlushContention: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The counter must return to zero after any interleaving of persists.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.Persist(uint64(w*64+i%64), 1, nil)
			}
		}(w)
	}
	wg.Wait()
	if d := p.flushers.Load(); d != 0 {
		t.Fatalf("flusher depth = %d after quiesce", d)
	}
	if p.Stats().Snapshot().Flushes != 8*500 {
		t.Fatalf("flush count = %d", p.Stats().Snapshot().Flushes)
	}
}
