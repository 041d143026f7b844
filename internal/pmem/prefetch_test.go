package pmem

import "testing"

func newPrefetchPool(t *testing.T, cost *CostModel) *Pool {
	t.Helper()
	p, err := NewPool(Config{ID: 3, Words: 1 << 12, HomeNode: -1, Cost: cost})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestPrefetchWarmsLineCache(t *testing.T) {
	p := newPrefetchPool(t, DefaultCostModel())
	acc := NewAcc(0)

	// The test owns acc and publishes its ledger before each reading.
	stats := func() StatsSnapshot {
		acc.Publish()
		return p.Stats().Snapshot()
	}

	p.Prefetch(128, acc)
	snap := stats()
	if snap.Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", snap.Prefetches)
	}

	// The subsequent load of the same line must be a hit: no new miss.
	missesBefore := snap.Misses
	p.Load(130, acc) // same 8-word line as offset 128
	snap = stats()
	if snap.Misses != missesBefore {
		t.Fatalf("load after prefetch missed: misses %d -> %d", missesBefore, snap.Misses)
	}

	// Prefetching a resident line is free and uncounted.
	p.Prefetch(129, acc)
	if got := stats().Prefetches; got != 1 {
		t.Fatalf("resident-line prefetch counted: prefetches = %d, want 1", got)
	}
}

func TestPrefetchOutOfRangeIsIgnored(t *testing.T) {
	p := newPrefetchPool(t, DefaultCostModel())
	acc := NewAcc(0)
	p.Prefetch(p.Size(), acc)      // first invalid offset
	p.Prefetch(^uint64(0), acc)    // a garbage stale-hint offset
	p.Prefetch(p.Size()+1234, nil) // nil accessor
	acc.Publish()
	if got := p.Stats().Snapshot().Prefetches; got != 0 {
		t.Fatalf("out-of-range prefetch counted: prefetches = %d, want 0", got)
	}
}

func TestPrefetchWithoutCostModel(t *testing.T) {
	p := newPrefetchPool(t, nil)
	acc := NewAcc(0)
	p.Prefetch(0, acc) // must not panic or count
	acc.Publish()
	if got := p.Stats().Snapshot().Prefetches; got != 0 {
		t.Fatalf("cost-free prefetch counted: prefetches = %d, want 0", got)
	}
}

func TestLoadBlockMatchesPerWordLoads(t *testing.T) {
	p := newPrefetchPool(t, DefaultCostModel())
	acc := NewAcc(0)
	base := uint64(64)
	nwords := uint64(37) // deliberately not line-aligned at either end
	for i := uint64(0); i < nwords; i++ {
		p.Store(base+i, i*i+7, nil)
	}
	got := make([]uint64, nwords)
	p.LoadBlock(base+0, got, acc)
	for i := uint64(0); i < nwords; i++ {
		if want := p.Load(base+i, nil); got[i] != want {
			t.Fatalf("word %d: LoadBlock read %d, Load reads %d", i, got[i], want)
		}
	}
}

func TestLoadBlockChargesPerLine(t *testing.T) {
	p := newPrefetchPool(t, DefaultCostModel())
	acc := NewAcc(0)
	stats := func() StatsSnapshot {
		acc.Publish()
		return p.Stats().Snapshot()
	}
	buf := make([]uint64, 2*LineWords) // spans exactly two cold lines
	p.LoadBlock(0, buf, acc)
	snap := stats()
	if snap.Loads != uint64(len(buf)) {
		t.Fatalf("loads = %d, want %d", snap.Loads, len(buf))
	}
	// One miss, not two: the first line's miss triggers the modelled
	// next-line hardware prefetch, so the second sequential line hits.
	if snap.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (next-line prefetch covers line 2)", snap.Misses)
	}
	// Re-reading the now-resident block adds loads but no misses.
	p.LoadBlock(0, buf, acc)
	snap = stats()
	if snap.Misses != 1 {
		t.Fatalf("resident block re-read missed: misses = %d, want 1", snap.Misses)
	}
	// Empty block is a no-op.
	p.LoadBlock(0, nil, acc)
	if got := stats().Loads; got != 2*uint64(len(buf)) {
		t.Fatalf("loads after empty block = %d, want %d", got, 2*len(buf))
	}
}

func TestLoadBlockSeesVolatileWritesUnderTracking(t *testing.T) {
	p := newPrefetchPool(t, nil)
	p.EnableTracking()
	p.Store(8, 42, nil) // dirty, unflushed
	buf := make([]uint64, 1)
	p.LoadBlock(8, buf, nil)
	if buf[0] != 42 {
		t.Fatalf("LoadBlock read %d, want the volatile value 42", buf[0])
	}
	p.Crash()
	p.LoadBlock(8, buf, nil)
	if buf[0] != 0 {
		t.Fatalf("post-crash LoadBlock read %d, want the reverted value 0", buf[0])
	}
}

// Populate is host memory management, not a simulated access: it leaves
// every word, every counter and the crash shadow as they were, and
// ignores a range the pool does not have.
func TestPopulateIsInvisible(t *testing.T) {
	p := newPrefetchPool(t, DefaultCostModel())
	p.EnableTracking()
	acc := NewAcc(0)
	for off := uint64(0); off < p.Size(); off += 97 {
		p.Store(off, off+1, acc)
	}
	p.Persist(0, 512, acc) // the first page durable, the rest only written
	acc.Publish()
	before := p.Stats().Snapshot()

	p.Populate(0, p.Size())
	p.Populate(5, 0)
	p.Populate(p.Size()-8, 9)    // runs past the end
	p.Populate(^uint64(0)-3, 16) // garbage
	acc.Publish()
	if after := p.Stats().Snapshot(); after != before {
		t.Fatalf("Populate was counted: %v -> %v", before, after)
	}
	for off := uint64(0); off < p.Size(); off++ {
		want := uint64(0)
		if off%97 == 0 {
			want = off + 1
		}
		if got := p.Load(off, nil); got != want {
			t.Fatalf("word %d = %d after Populate, want %d", off, got, want)
		}
	}
	// Nothing became durable by being touched: a crash still reverts
	// every written line past the persisted page.
	p.Crash()
	for off := uint64(0); off < p.Size(); off += 97 {
		want := uint64(0)
		if off < 512 {
			want = off + 1
		}
		if got := p.Load(off, nil); got != want {
			t.Fatalf("word %d = %d after crash, want %d", off, got, want)
		}
	}
}
