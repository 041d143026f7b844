package upskiplist

import (
	"fmt"
	"math/rand"
	"testing"
)

// Sharding is a pure routing-and-placement layer: this file drives an
// unsharded store and a keyspace-sharded store through identical
// workloads and demands bit-identical observable behavior (per-op
// results, merged Scans, Count, invariants), including across simulated
// crashes — full and partial-eviction — and reopen. It also pins down
// the batch API: ApplyBatch must return the same results as applying the
// ops one by one, while issuing a small constant number of fences per
// shard per batch (one for staged value chunks, one for node commits)
// instead of one per operation.

// shardPair is the store duo under comparison: a unsharded, b split into
// nShards keyspace shards.
type shardPair struct {
	a, b *Store
}

func newShardPair(t *testing.T, nShards int) shardPair {
	t.Helper()
	mk := func(shards int) *Store {
		o := testOptions()
		o.Shards = shards
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return shardPair{a: mk(1), b: mk(nShards)}
}

func TestShardEquivalenceSingleWorker(t *testing.T) {
	p := newShardPair(t, 4)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	runMirrored(t, wa, wb, rand.New(rand.NewSource(11)), 20000, 400)
	compareState(t, wa, wb)
	if p.b.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.b.NumShards())
	}
	// The workload's dense keyspace must actually have spread: every
	// shard of b should hold something.
	for i := 0; i < p.b.NumShards(); i++ {
		if n := p.b.ShardList(i).Count(wb.ctxs[i]); n == 0 {
			t.Fatalf("shard %d is empty — routing never reached it", i)
		}
	}
}

func TestShardEquivalenceAcrossCrashReopen(t *testing.T) {
	p := newShardPair(t, 4)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	runMirrored(t, wa, wb, rand.New(rand.NewSource(12)), 8000, 300)

	// Crash both stores at the same quiesced point. The two layouts have
	// different line histories, so we cannot demand the same lines revert
	// — but at quiescence every completed operation's logical state is
	// persisted (the only dirty lines are lock words, whose epoch
	// embedding makes stale reader counts harmless after reopen), so the
	// observable state must survive identically in both.
	p.a.EnableCrashTracking()
	p.b.EnableCrashTracking()
	runMirrored(t, wa, wb, rand.New(rand.NewSource(13)), 4000, 300)
	p.a.SimulateCrash()
	p.b.SimulateCrash()
	a2, err := p.a.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.b.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	wa2, wb2 := a2.NewWorker(0), b2.NewWorker(0)
	runMirrored(t, wa2, wb2, rand.New(rand.NewSource(14)), 8000, 300)
	compareState(t, wa2, wb2)
}

func TestShardEquivalenceAcrossPartialCrash(t *testing.T) {
	p := newShardPair(t, 4)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	runMirrored(t, wa, wb, rand.New(rand.NewSource(15)), 6000, 250)

	// Partial crash: each unflushed line independently survives with
	// probability 0.5, under per-shard seeds — so b's four shards lose
	// different subsets than a's single pool. At quiescence that subset
	// only ever contains non-logical lines, so equivalence must still
	// hold.
	p.a.EnableCrashTracking()
	p.b.EnableCrashTracking()
	runMirrored(t, wa, wb, rand.New(rand.NewSource(16)), 3000, 250)
	p.a.SimulateCrashPartial(0.5, 99)
	p.b.SimulateCrashPartial(0.5, 99)
	a2, err := p.a.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.b.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	wa2, wb2 := a2.NewWorker(0), b2.NewWorker(0)
	runMirrored(t, wa2, wb2, rand.New(rand.NewSource(17)), 6000, 250)
	compareState(t, wa2, wb2)
}

// TestShardBatchEquivalence applies the same op stream twice: one op at
// a time on the unsharded store, in ApplyBatch chunks on the 4-shard
// store. Per-op results and final state must agree exactly.
func TestShardBatchEquivalence(t *testing.T) {
	p := newShardPair(t, 4)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	rng := rand.New(rand.NewSource(21))
	const batchSize = 64

	batch := make([]Op, 0, batchSize)
	res := make([]OpResult, batchSize)
	for round := 0; round < 120; round++ {
		batch = batch[:0]
		for len(batch) < batchSize {
			k := uint64(rng.Intn(300)) + 1
			switch rng.Intn(4) {
			case 0, 1:
				batch = append(batch, Op{Kind: OpInsert, Key: k, Value: u64v(uint64(rng.Intn(1 << 30)))})
			case 2:
				batch = append(batch, Op{Kind: OpGet, Key: k})
			default:
				batch = append(batch, Op{Kind: OpRemove, Key: k})
			}
		}
		got := wb.ApplyBatchInto(batch, res)
		for i, op := range batch {
			var wantVal uint64
			var wantFound bool
			var wantErr error
			switch op.Kind {
			case OpInsert:
				wantVal, wantFound, wantErr = wa.PutU64(op.Key, leU64(op.Value))
			case OpGet:
				wantVal, wantFound = wa.GetU64(op.Key)
			default:
				wantVal, wantFound, wantErr = wa.RemoveU64(op.Key)
			}
			if leU64(got[i].Value) != wantVal || got[i].Found != wantFound ||
				(got[i].Err == nil) != (wantErr == nil) {
				t.Fatalf("round %d op %d (%+v): batched (%d,%v,%v) vs sequential (%d,%v,%v)",
					round, i, op, leU64(got[i].Value), got[i].Found, got[i].Err,
					wantVal, wantFound, wantErr)
			}
		}
	}
	compareState(t, wa, wb)
}

// TestBatchSameKeyOrdering pins the submission-order guarantee for
// operations on one key inside a batch: a Get after an Insert of the
// same key observes the inserted value, and results reflect the
// sequential history even though the batch is key-sorted internally.
func TestBatchSameKeyOrdering(t *testing.T) {
	o := testOptions()
	o.Shards = 2
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	res := w.ApplyBatch([]Op{
		{Kind: OpInsert, Key: 10, Value: u64v(1)},
		{Kind: OpGet, Key: 10},
		{Kind: OpInsert, Key: 10, Value: u64v(2)},
		{Kind: OpRemove, Key: 10},
		{Kind: OpGet, Key: 10},
		{Kind: OpInsert, Key: 11, Value: u64v(7)},
	})
	want := []struct {
		val   uint64
		found bool
	}{
		{0, false}, // fresh insert
		{1, true},  // get sees first insert
		{1, true},  // second insert returns prior value
		{2, true},  // remove returns latest value
		{0, false}, // get after remove misses
		{0, false}, // unrelated key
	}
	for i := range want {
		if res[i].Err != nil {
			t.Fatalf("op %d: unexpected error %v", i, res[i].Err)
		}
		if leU64(res[i].Value) != want[i].val || res[i].Found != want[i].found {
			t.Fatalf("op %d: got (%d,%v), want (%d,%v)",
				i, leU64(res[i].Value), res[i].Found, want[i].val, want[i].found)
		}
	}
}

// storeFences sums the fence counters over every pool of a store.
func storeFences(s *Store) uint64 {
	var n uint64
	for _, p := range s.Pools() {
		n += p.Stats().Snapshot().Fences
	}
	return n
}

// TestBatchFenceAmortization is the acceptance check for group commit:
// updating 64 preloaded keys one operation at a time costs one fence
// per operation, while one ApplyBatch of the same 64 updates drains all
// value persists with a single trailing fence per touched shard.
func TestBatchFenceAmortization(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := testOptions()
			o.Shards = shards
			st, err := Create(o)
			if err != nil {
				t.Fatal(err)
			}
			w := st.NewWorker(0)
			const n = 64
			for k := uint64(1); k <= n; k++ {
				if _, _, err := w.PutU64(k, k); err != nil {
					t.Fatal(err)
				}
			}

			// Pure updates of existing keys: no structural changes, so every
			// fence below is a commit fence.
			before := storeFences(st)
			for k := uint64(1); k <= n; k++ {
				if _, _, err := w.PutU64(k, k+100); err != nil {
					t.Fatal(err)
				}
			}
			single := storeFences(st) - before

			batch := make([]Op, 0, n)
			for k := uint64(1); k <= n; k++ {
				batch = append(batch, Op{Kind: OpInsert, Key: k, Value: u64v(k + 200)})
			}
			before = storeFences(st)
			res := w.ApplyBatch(batch)
			batched := storeFences(st) - before

			for i, r := range res {
				if r.Err != nil || !r.Found || leU64(r.Value) != uint64(i)+1+100 {
					t.Fatalf("batch op %d: got (%d,%v,%v)", i, leU64(r.Value), r.Found, r.Err)
				}
			}
			if single < n {
				t.Fatalf("singles issued %d fences, expected >= %d (one per op)", single, n)
			}
			// Two fences per touched shard: one draining the staged value
			// chunks (write-then-publish ordering), one draining the node
			// word commits.
			if batched > uint64(2*shards) {
				t.Fatalf("batch issued %d fences, expected <= %d (two per touched shard)",
					batched, 2*shards)
			}
			if batched*8 > single {
				t.Fatalf("fence amortization too weak: batch %d vs singles %d", batched, single)
			}
		})
	}
}

// TestShardedSaveLoad round-trips a 4-shard store through Save/Load (v2
// meta + shard-qualified pool files) and checks contents and routing
// survive.
func TestShardedSaveLoad(t *testing.T) {
	o := testOptions()
	o.Shards = 4
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w.PutU64(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumShards() != 4 {
		t.Fatalf("loaded NumShards = %d, want 4", st2.NumShards())
	}
	w2 := st2.NewWorker(0)
	if c := w2.Count(); c != n {
		t.Fatalf("loaded Count = %d, want %d", c, n)
	}
	prev := uint64(0)
	w2.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool {
		if k <= prev {
			t.Fatalf("merged scan out of order: %d after %d", k, prev)
		}
		if v != k*3 {
			t.Fatalf("key %d: value %d, want %d", k, v, k*3)
		}
		prev = k
		return true
	})
	if err := w2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergedIteratorOrder checks the public cursor over a sharded store:
// keys come back strictly increasing across shard boundaries and Seek
// lands on the first key >= target regardless of owning shard.
func TestMergedIteratorOrder(t *testing.T) {
	o := testOptions()
	o.Shards = 3
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	for k := uint64(1); k <= 999; k += 3 {
		if _, _, err := w.PutU64(k, k); err != nil {
			t.Fatal(err)
		}
	}
	it := w.Iterator()
	count, prev := 0, uint64(0)
	for ok := it.Seek(KeyMin); ok; ok = it.Next() {
		if it.Key() <= prev {
			t.Fatalf("iterator out of order: %d after %d", it.Key(), prev)
		}
		prev = it.Key()
		count++
	}
	if count != 333 {
		t.Fatalf("iterator visited %d keys, want 333", count)
	}
	if !it.Seek(500) || it.Key() != 502 {
		t.Fatalf("Seek(500) landed on %d (valid=%v), want 502", it.Key(), it.Valid())
	}
}
