package upskiplist

import (
	"math/rand"
	"testing"

	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

// Foresight prefetching rides the hint cache: hint-seeded descents
// prefetch the hinted node BEFORE validating it, and the batch applier
// prefetches op i+1's hinted node while op i runs. A prefetch of a stale
// hint touches memory the hint no longer describes, so this file is the
// regression companion to hint_equivalence_test.go: identical op
// streams with prefetching on vs fully off must stay bit-identical —
// including when the hint caches are poisoned with pre-crash pointers
// after a reopen (the dangling-prefetch case).

func newForesightPair(t *testing.T) hintPair {
	t.Helper()
	mk := func(disable bool) *Store {
		o := testOptions()
		// Cost model on, so prefetches run their charged path (range
		// check, line-cache probe, spin) rather than the free no-op one.
		o.Cost = pmem.DefaultCostModel()
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		if disable {
			st.SetTuning(skiplist.Tuning{NoPrefetch: true, TowerBranch: 2})
		}
		return st
	}
	return hintPair{a: mk(false), b: mk(true)}
}

func TestForesightEquivalenceSingleWorker(t *testing.T) {
	p := newForesightPair(t)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	runMirrored(t, wa, wb, rand.New(rand.NewSource(5)), 20000, 400)
	compareState(t, wa, wb)
	if got := p.a.Stats().Mem.Prefetches; got == 0 {
		t.Fatal("foresight store issued no charged prefetches")
	}
	if got := p.b.Stats().Mem.Prefetches; got != 0 {
		t.Fatalf("foresight-disabled store issued %d prefetches", got)
	}
	if wa.Stats().KeysProbed == 0 || wa.Stats().NodesVisited == 0 {
		t.Fatal("traversal-locality counters never moved")
	}
}

// TestForesightStaleHintsAcrossReopen is the dangling-prefetch
// regression: reuse the SAME worker contexts (hint caches still full of
// pre-crash pointers) against the reopened stores. The first operation
// per key prefix consults — and prefetches through — a stale hint whose
// pointer may now be out of range or mid-block; every result must still
// match the prefetch-free store, and nothing may fault.
func TestForesightStaleHintsAcrossReopen(t *testing.T) {
	p := newForesightPair(t)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	runMirrored(t, wa, wb, rand.New(rand.NewSource(6)), 8000, 300)

	p.a.EnableCrashTracking()
	p.b.EnableCrashTracking()
	runMirrored(t, wa, wb, rand.New(rand.NewSource(7)), 4000, 300)
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
	// Reopen applies each store's tuning again; the prefetch-free store
	// must come back with prefetching still off.
	wa2 := &Worker{s: a2, ctxs: wa.ctxs}
	wb2 := &Worker{s: b2, ctxs: wb.ctxs}
	runMirrored(t, wa2, wb2, rand.New(rand.NewSource(8)), 12000, 300)
	compareState(t, wa2, wb2)
	if got := b2.Stats().Mem.Prefetches; got != 0 {
		t.Fatalf("reopened prefetch-free store issued %d prefetches", got)
	}
}

// TestForesightBatchPrefetch covers the batch applier's next-op hint
// prefetch path against per-op application of the same stream.
func TestForesightBatchPrefetch(t *testing.T) {
	p := newForesightPair(t)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	rng := rand.New(rand.NewSource(9))
	const keyspace = 300
	// Warm both stores (and a's hint cache) with point ops first, so the
	// batch run below actually finds hints to prefetch through.
	runMirrored(t, wa, wb, rng, 6000, keyspace)
	for round := 0; round < 50; round++ {
		ops := make([]Op, 64)
		mirror := make([]Op, 64)
		for i := range ops {
			k := uint64(rng.Intn(keyspace)) + 1
			switch rng.Intn(3) {
			case 0:
				ops[i] = Op{Kind: OpInsert, Key: k, Value: u64v(uint64(rng.Intn(1 << 20)))}
			case 1:
				ops[i] = Op{Kind: OpGet, Key: k}
			default:
				ops[i] = Op{Kind: OpRemove, Key: k}
			}
			mirror[i] = ops[i]
		}
		ra := wa.ApplyBatch(ops)
		rb := wb.ApplyBatch(mirror)
		for i := range ra {
			if leU64(ra[i].Value) != leU64(rb[i].Value) || ra[i].Found != rb[i].Found ||
				(ra[i].Err == nil) != (rb[i].Err == nil) {
				t.Fatalf("round %d op %d: batch results diverged: %+v vs %+v", round, i, ra[i], rb[i])
			}
		}
	}
	compareState(t, wa, wb)
	if got := p.a.Stats().Mem.Prefetches; got == 0 {
		t.Fatal("batched foresight store issued no charged prefetches")
	}
}
