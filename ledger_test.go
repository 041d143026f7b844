package upskiplist

import (
	"math/rand"
	"testing"

	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
)

// The cost model's readings are part of the repository's measured
// record: a change to how they are collected must not move them by one
// count. These tests pin the totals of a fixed operation stream to the
// values the per-access atomic counters produced, and check that every
// public Worker call leaves its whole count in Store.Stats() when it
// returns.

// ledgerStore creates a store with the cost model on and, with reclaim
// set, online reclaim on but paused, so removes that empty a node queue
// it without retiring it and nothing but the calling goroutine's ops
// touches the pools. It returns the counters as they stand after
// Create.
func ledgerStore(t *testing.T, shards int, reclaim bool) (*Store, pmem.StatsSnapshot) {
	t.Helper()
	o := DefaultOptions()
	o.Shards = shards
	if shards > 1 {
		// Shards alternate between two nodes, so the worker's accesses to
		// half of them pay (and count) the remote surcharge.
		o.NUMANodes, o.Placement = 2, PerNode
	}
	o.Cost = pmem.DefaultCostModel()
	o.OnlineReclaim = reclaim
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	st.PauseReclaim()
	t.Cleanup(func() {
		st.ResumeReclaim()
		st.DisableOnlineReclaim()
	})
	return st, st.Stats().Mem
}

func memDelta(st *Store, base pmem.StatsSnapshot) pmem.StatsSnapshot {
	return StoreStats{Mem: st.Stats().Mem}.Sub(StoreStats{Mem: base}).Mem
}

// ledgerStream drives a seeded mix of every mutating and reading entry
// point of Worker — point ops with 8-byte, small, 1 KiB and chained
// values, short scans, and batches — over a keyspace small enough that
// overwrites, removes of present keys and re-inserts all occur.
func ledgerStream(t *testing.T, w *Worker) {
	t.Helper()
	const ops, keys = 20_000, 6_000
	rng := rand.New(rand.NewSource(14))
	val := make([]byte, 6000)
	rng.Read(val)
	value := func() []byte {
		switch r := rng.Intn(20); {
		case r < 10:
			return val[:8]
		case r < 17:
			return val[:rng.Intn(300)]
		case r < 19:
			return val[:1024]
		default:
			return val[:5200+rng.Intn(800)] // past the largest class: chained
		}
	}
	key := func() uint64 { return 1 + uint64(rng.Intn(keys)) }
	var batch []Op
	var res []OpResult
	for i := 0; i < ops; {
		switch r := rng.Intn(100); {
		case r < 35:
			if _, _, err := w.Put(key(), value()); err != nil {
				t.Fatal(err)
			}
			i++
		case r < 65:
			w.Get(key())
			i++
		case r < 80:
			if _, _, err := w.Remove(key()); err != nil {
				t.Fatal(err)
			}
			i++
		case r < 90:
			lo, n := key(), 0
			if err := w.Scan(lo, lo+uint64(rng.Intn(200)), func(uint64, []byte) bool {
				n++
				return n < 50
			}); err != nil {
				t.Fatal(err)
			}
			i++
		default:
			batch = batch[:0]
			for j, n := 0, 1+rng.Intn(32); j < n; j++ {
				op := Op{Kind: OpKind(rng.Intn(3)), Key: key()}
				if op.Kind == OpInsert {
					op.Value = value()
				}
				batch = append(batch, op)
			}
			if cap(res) < len(batch) {
				res = make([]OpResult, 64)
			}
			for _, r := range w.ApplyBatchInto(batch, res[:len(batch)]) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			i += len(batch)
		}
	}
}

// TestLedgerStreamTotals: the stream's counter totals, recorded with
// the counters still bumped atomically on every access (the commit
// before the per-accessor ledger). Any difference means the instrument
// reads differently, not that it got cheaper. The one-shard loads,
// misses and prefetches were recorded again when a one-shard Worker.Scan
// took the cursor path every sharded scan takes (each node it reads is
// snapshotted and decoded whole): they are what the commit before that
// change counts for this stream with its scans sent down that path, and
// the stores, CASes, flushes and fences did not move.
//
// Both rows were recorded once more when 8-byte values moved from slab
// chunks into the node word, which changes what the product accesses for
// the half of this stream's values that are 8 bytes (was: 1 shard loads
// 3108332 misses 100703 stores 452556 flushes 118879 fences 14072
// prefetches 6686; 4 shards loads 3896310 misses 19411 stores 452088
// CASes 23502 flushes 123446 fences 17421 prefetches 699 remote 24055).
// An 8-byte put no longer allocates, fills and flushes a chunk, or first
// looks the key up to overwrite a chunk's payload in place; a read of one
// no longer loads a chunk line. The one-shard CAS count did not move: a
// payload-word CAS became the split lock's shared acquire.
//
// Both rows were recorded again when the value arena's free lists left
// the pools (was: 1 shard loads 2987482 misses 90055 stores 439468 CASes
// 23521 flushes 115286 fences 12653 prefetches 5665; 4 shards loads
// 3769715 misses 17532 stores 439103 CASes 23504 flushes 122606 fences
// 15562 prefetches 634 remote 26703). A pop loads and stores no head, a
// push loads no head, a put flushes no head line and a grow flushes only
// its page's header line. Each shard's first slab chunk is claimed by the
// stream's first out-of-line put instead of by Create, which moves that
// claim's CAS and two fences into the stream. The line cache sees another
// access stream (no head lines, slab chunks at other addresses), which
// moves misses, prefetches and remote accesses.
//
// The loads of both rows were recorded again when a bulk load
// (LoadBlock, LoadBytes) came to count one load per cache line it
// charges instead of one per word (was: 1 shard loads 2977651, 4 shards
// loads 3760253). Nothing the pools do moved: every other counter is the
// same, and what the spin loops burned was already charged per line.
//
// The loads of both rows were recorded again when traversals stopped
// loading each node's kind word to recognise a retired node (was: 1
// shard loads 1073019, 4 shards loads 1188182). They read the split
// count or the next word they load anyway; every other counter is the
// same.
//
// The loads, misses, prefetches and remote accesses of both rows were
// recorded again when a scan came to decode only the values it yields
// instead of every pair of every node it snapshots (was: 1 shard loads
// 960638 misses 86301 prefetches 5661; 4 shards loads 1079913 misses
// 15352 prefetches 629 remote 26818). The chunk lines of the pairs past
// a scan's last yield are no longer loaded; no store, CAS, flush or
// fence moved.
//
// The loads, misses, prefetches and remote accesses of both rows were
// recorded again when a traversal came to read each node's header line
// with one access, and the hint table grew from 512 to 4096 slots (was:
// 1 shard loads 930242 misses 77293 prefetches 5096; 4 shards loads
// 957314 misses 11106 prefetches 334 remote 24406). A visited node costs
// one load where it cost three to five, more traversals start from a
// hint and so from another line, and the line cache sees that other
// access stream; no store, CAS, flush or fence moved.
func TestLedgerStreamTotals(t *testing.T) {
	want := map[int]pmem.StatsSnapshot{
		1: {Loads: 466607, Misses: 77341, Stores: 430778, CASes: 23522, Flushes: 76622, Fences: 12655, Prefetches: 5335},
		4: {Loads: 509844, Misses: 11119, Stores: 430078, CASes: 23508, Flushes: 74971, Fences: 15570, Prefetches: 350, RemoteOps: 24402},
	}
	for _, shards := range []int{1, 4} {
		st, base := ledgerStore(t, shards, true)
		w := st.NewWorker(1)
		ledgerStream(t, w)
		if got := memDelta(st, base); got != want[shards] {
			t.Errorf("%d shard(s): stream counters\n got %+v misses=%d\nwant %+v misses=%d", shards, got, got.Misses, want[shards], want[shards].Misses)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerPublishedAtOpExit: when a public Worker call returns, the
// store's counters hold that call's whole count — the fences it is
// known to cost, loads for a read that fences nothing — and the
// worker's accessors hold nothing back for the next call to publish.
// Checked with online reclaim off and on.
func TestLedgerPublishedAtOpExit(t *testing.T) {
	for _, reclaim := range []bool{false, true} {
		st, _ := ledgerStore(t, 2, reclaim)
		w := st.NewWorker(1)
		kib := make([]byte, 1024)
		for k := uint64(1); k <= 64; k++ {
			if _, _, err := w.PutU64(k, k); err != nil {
				t.Fatal(err)
			}
		}
		steps := []struct {
			name   string
			fences int // -1: not pinned down here
			call   func()
		}{
			{"8-byte overwrite", 1, func() { w.PutU64(7, 70) }},
			{"first 100-byte put (carves a slab page)", -1, func() { w.Put(8, kib[:100]) }},
			{"100-byte put", 2, func() { w.Put(8, kib[:100]) }},
			{"1 KiB put", -1, func() { w.Put(8, kib) }},
			{"Get", 0, func() { w.Get(8) }},
			{"GetInto", 0, func() { w.GetInto(9, nil) }},
			{"Contains", 0, func() { w.Contains(10) }},
			{"Scan across shards", 0, func() { w.Scan(1, 40, func(uint64, []byte) bool { return true }) }},
			{"Remove", -1, func() { w.Remove(11) }},
			{"insert of a new key", -1, func() { w.Put(1000, kib[:100]) }},
			{"ApplyBatch", -1, func() {
				w.ApplyBatch([]Op{{Kind: OpInsert, Key: 12, Value: kib[:8]}, {Kind: OpGet, Key: 13},
					{Kind: OpRemove, Key: 14}, {Kind: OpInsert, Key: 15, Value: kib[:300]}})
			}},
			{"Count", 0, func() { w.Count() }},
		}
		check := func(name string, fences int, ctxs []*exec.Ctx, call func()) {
			t.Helper()
			base := st.Stats().Mem
			call()
			d := memDelta(st, base)
			if d.Loads == 0 {
				t.Errorf("reclaim=%v %s: no loads counted when the call returned", reclaim, name)
			}
			if fences >= 0 && d.Fences != uint64(fences) {
				t.Errorf("reclaim=%v %s: %d fences counted when the call returned, want %d", reclaim, name, d.Fences, fences)
			}
			for _, ctx := range ctxs {
				ctx.Mem.Publish()
			}
			if after := memDelta(st, base); after != d {
				t.Errorf("reclaim=%v %s: counts held back past the call:\n at return %+v misses=%d\n published %+v misses=%d",
					reclaim, name, d, d.Misses, after, after.Misses)
			}
		}
		for _, s := range steps {
			check(s.name, s.fences, w.ctxs, s.call)
		}
		check("Iterator walked to its end", 0, w.ctxs, func() {
			it := w.Iterator()
			for ok := it.Seek(KeyMin); ok; ok = it.Next() {
				it.Value()
			}
		})
		check("CheckInvariants", -1, w.ctxs, func() {
			if err := w.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})

		// A snapshot reader has accessors of its own. Overwrites after it
		// opens send its reads through the version log and the decode of
		// retained chunks, which run outside the list's own operation.
		sn, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 16; k++ {
			w.Put(k, kib[:200])
		}
		check("Snap.Get", 0, sn.ctxs, func() { sn.Get(8) })
		check("Snap.Scan", 0, sn.ctxs, func() { sn.Scan(1, 40, func(uint64, []byte) bool { return true }) })
		check("Snap.Count", 0, sn.ctxs, func() { sn.Count() })
		sn.Release()
	}
}
