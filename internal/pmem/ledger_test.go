package pmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLedgerPublishPoints walks the points at which an accessor's
// private counts reach Stats.Snapshot: not on a plain access, then on a
// fence, on moving to another pool, at the pending-call threshold, and
// on an explicit Publish.
func TestLedgerPublishPoints(t *testing.T) {
	cost := DefaultCostModel()
	p, err := NewPool(Config{ID: 1, Words: 1 << 12, HomeNode: -1, Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPool(Config{ID: 2, Words: 1 << 12, HomeNode: -1, Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAcc(0)
	loads := func(pool *Pool) uint64 { return pool.Stats().Snapshot().Loads }

	p.Load(0, acc)
	p.Load(2*LineWords, acc) // not the next line: the miss above prefetched that one
	if got := loads(p); got != 0 {
		t.Fatalf("two loads, nothing published yet: snapshot shows %d", got)
	}
	p.Fence(acc)
	if got := p.Stats().Snapshot(); got.Loads != 2 || got.Misses != 2 || got.Fences != 1 {
		t.Fatalf("after fence: %+v misses=%d", got, got.Misses)
	}

	p.Load(0, acc)
	q.Load(0, acc) // the move publishes p's pending load; q's stays private
	if lp, lq := loads(p), loads(q); lp != 3 || lq != 0 {
		t.Fatalf("after moving pools: p=%d q=%d, want 3 and 0", lp, lq)
	}
	acc.Publish()
	if lq := loads(q); lq != 1 {
		t.Fatalf("after Publish: q=%d, want 1", lq)
	}
	acc.Publish() // empty ledger: a no-op
	if lq := loads(q); lq != 1 {
		t.Fatalf("second Publish moved the count to %d", lq)
	}

	for i := 0; i < ledgerFlushEvents; i++ {
		q.Load(0, acc)
	}
	if lq := loads(q); lq != 1 {
		t.Fatalf("%d pending calls published early: q=%d", ledgerFlushEvents, lq)
	}
	q.Load(0, acc) // the call past the threshold publishes the ones before it
	if lq := loads(q); lq != 1+ledgerFlushEvents {
		t.Fatalf("threshold: q=%d, want %d", lq, 1+ledgerFlushEvents)
	}

	// Accessor-less accesses have no ledger: they are visible at once.
	p.Load(0, nil)
	if lp := loads(p); lp != 4 {
		t.Fatalf("nil-accessor load: p=%d, want 4", lp)
	}
}

// ledgerWork is one goroutine's share of TestLedgerConcurrentExact:
// every counted entry point, over 200 lines no other share touches.
func ledgerWork(p *Pool, g, rounds int) {
	acc := NewAcc(g % 2) // odd shares are remote to the pool's node 0
	base := uint64(g) * 4096
	var blk [LineWords]uint64
	var buf []byte
	for i := 0; i < rounds; i++ {
		off := base + uint64(i%200)*LineWords
		v := p.Load(off, acc)
		p.Store(off, v+1, acc)
		p.CAS(off, v+1, v+2, acc)
		p.Add(off+1, 1, acc)
		p.LoadBlock(off, blk[:], acc)
		p.StoreBytes(off+2, []byte("0123456789abcdef"), acc)
		buf = p.LoadBytes(off+2, 16, buf[:0], acc)
		p.Prefetch(off+300*LineWords, acc)
		if i%2 == 0 {
			p.Persist(off, LineWords, acc)
		}
	}
	acc.Publish()
}

// TestLedgerConcurrentExact has several goroutines, each with a private
// accessor, drive every counted entry point of one pool while another
// goroutine reads Snapshot in a loop. Under -race this checks that a
// ledger shares nothing with its readers. While the work runs no reading
// goes backwards or gets ahead of what was issued; after the join the
// totals equal those of the same shares run one after another.
func TestLedgerConcurrentExact(t *testing.T) {
	const workers, rounds = 4, 3000
	const loadsPerRound = 1 + LineWords + 2
	newPool := func() *Pool {
		p, err := NewPool(Config{Words: 1 << 15, HomeNode: 0, Cost: &CostModel{
			HitPenalty: 1, LoadPenalty: 2, StorePenalty: 1, FlushPenalty: 1,
			FencePenalty: 1, RemotePenalty: 1, PrefetchPenalty: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := newPool()
	for g := 0; g < workers; g++ {
		ledgerWork(ref, g, rounds)
	}
	want := ref.Stats().Snapshot()
	if want.Loads != workers*rounds*loadsPerRound || want.Fences != workers*rounds/2 ||
		want.Misses == 0 || want.RemoteOps == 0 || want.Prefetches == 0 {
		t.Fatalf("reference run: %+v misses=%d", want, want.Misses)
	}

	p := newPool()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prev StatsSnapshot
		for {
			s := p.Stats().Snapshot()
			if s.Loads < prev.Loads || s.Stores < prev.Stores || s.Fences < prev.Fences {
				t.Errorf("snapshot went backwards: %+v after %+v", s, prev)
				return
			}
			if s.Loads > want.Loads || s.Fences > want.Fences {
				t.Errorf("snapshot ahead of the work issued: %+v", s)
				return
			}
			prev = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ledgerWork(p, g, rounds)
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if got := p.Stats().Snapshot(); got != want {
		t.Fatalf("totals after join:\n got %+v misses=%d\nwant %+v misses=%d", got, got.Misses, want, want.Misses)
	}
}

// The three benchmarks below give the cost of one simulated load —
// model spin included — as ns/op: a line-cache hit, a miss, and misses
// from every GOMAXPROCS goroutine at once, each on a private pool and
// accessor, so that whatever they still share is the instrument's own.

var loadSink atomic.Uint64

func benchPool(b *testing.B) *Pool {
	b.Helper()
	p, err := NewPool(Config{Words: 1 << 19, HomeNode: -1, Cost: DefaultCostModel()})
	if err != nil {
		b.Fatal(err)
	}
	for off := uint64(0); off < p.Size(); off += 512 {
		p.Store(off, 1, nil) // touch every page: untouched memory is one shared zero page
	}
	return p
}

func BenchmarkPoolLoadHit(b *testing.B) {
	p, acc := benchPool(b), NewAcc(0)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += p.Load(uint64(i)&(LineWords-1), acc)
	}
	loadSink.Add(sum)
}

// missStride walks two lines at a time so the model's next-line
// prefetch never covers the following load; 4 MiB of pool wraps well
// past the 512 KiB line cache.
const missStride = 2 * LineWords

func BenchmarkPoolLoadMiss(b *testing.B) {
	p, acc := benchPool(b), NewAcc(0)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i, off := 0, uint64(0); i < b.N; i, off = i+1, (off+missStride)&(1<<19-1) {
		sum += p.Load(off, acc)
	}
	loadSink.Add(sum)
}

func BenchmarkPoolLoadParallel(b *testing.B) {
	pools := make([]*Pool, runtime.GOMAXPROCS(0))
	accs := make([]*Acc, len(pools))
	for i := range pools {
		pools[i], accs[i] = benchPool(b), NewAcc(0)
	}
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) - 1
		p, acc := pools[i], accs[i]
		var sum uint64
		for off := uint64(0); pb.Next(); off = (off + missStride) & (1<<19 - 1) {
			sum += p.Load(off, acc)
		}
		loadSink.Add(sum)
	})
}
