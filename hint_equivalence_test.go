package upskiplist

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"upskiplist/internal/skiplist"
)

// The hint cache is a pure performance layer: this file drives two stores
// through identical workloads — one with hints, one without — and demands
// bit-identical observable behavior (per-op results, Scan, Count,
// invariants), including across a simulated crash and reopen. Hints are
// volatile per-worker state, so nothing of them may survive the reopen.

// hintPair is the store duo under comparison: a runs with the hint cache
// (the default), b with it disabled.
type hintPair struct {
	a, b *Store
}

func newHintPair(t *testing.T) hintPair {
	t.Helper()
	mk := func(disable bool) *Store {
		o := testOptions()
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		st.SetTuning(skiplist.Tuning{NoHints: disable})
		return st
	}
	return hintPair{a: mk(false), b: mk(true)}
}

// runMirrored drives both stores through the same randomized op stream on
// one worker pair, failing on any observable divergence.
func runMirrored(t *testing.T, wa, wb *Worker, rng *rand.Rand, ops, keyspace int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keyspace)) + 1
		switch rng.Intn(5) {
		case 0, 1:
			v := uint64(rng.Intn(1 << 30))
			oldA, exA, errA := wa.PutU64(k, v)
			oldB, exB, errB := wb.PutU64(k, v)
			if oldA != oldB || exA != exB || (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: Insert(%d,%d) diverged: (%d,%v,%v) vs (%d,%v,%v)",
					i, k, v, oldA, exA, errA, oldB, exB, errB)
			}
		case 2:
			vA, okA := wa.GetU64(k)
			vB, okB := wb.GetU64(k)
			if vA != vB || okA != okB {
				t.Fatalf("op %d: Get(%d) diverged: (%d,%v) vs (%d,%v)", i, k, vA, okA, vB, okB)
			}
		case 3:
			oldA, exA, errA := wa.RemoveU64(k)
			oldB, exB, errB := wb.RemoveU64(k)
			if oldA != oldB || exA != exB || (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: Remove(%d) diverged: (%d,%v,%v) vs (%d,%v,%v)",
					i, k, oldA, exA, errA, oldB, exB, errB)
			}
		case 4:
			lo := k
			hi := lo + uint64(rng.Intn(32))
			var sa, sb []uint64
			wa.ScanU64(lo, hi, func(key, val uint64) bool { sa = append(sa, key, val); return true })
			wb.ScanU64(lo, hi, func(key, val uint64) bool { sb = append(sb, key, val); return true })
			if fmt.Sprint(sa) != fmt.Sprint(sb) {
				t.Fatalf("op %d: Scan(%d,%d) diverged:\n%v\nvs\n%v", i, lo, hi, sa, sb)
			}
		}
	}
}

// compareState checks the full observable state of both stores.
func compareState(t *testing.T, wa, wb *Worker) {
	t.Helper()
	if ca, cb := wa.Count(), wb.Count(); ca != cb {
		t.Fatalf("Count diverged: %d vs %d", ca, cb)
	}
	var sa, sb []uint64
	wa.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool { sa = append(sa, k, v); return true })
	wb.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool { sb = append(sb, k, v); return true })
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Fatal("full Scan diverged between hinted and unhinted stores")
	}
	if err := wa.CheckInvariants(); err != nil {
		t.Fatalf("hinted store invariants: %v", err)
	}
	if err := wb.CheckInvariants(); err != nil {
		t.Fatalf("unhinted store invariants: %v", err)
	}
}

func TestHintEquivalenceSingleWorker(t *testing.T) {
	p := newHintPair(t)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	runMirrored(t, wa, wb, rand.New(rand.NewSource(1)), 20000, 400)
	compareState(t, wa, wb)
	if wa.Ctx().Hints.Seeded == 0 {
		t.Fatal("hinted store never actually used a hint")
	}
	if wb.Ctx().Hints.Seeded != 0 {
		t.Fatal("unhinted store consulted its cache")
	}
}

func TestHintEquivalenceAcrossCrashReopen(t *testing.T) {
	p := newHintPair(t)
	wa, wb := p.a.NewWorker(0), p.b.NewWorker(0)
	runMirrored(t, wa, wb, rand.New(rand.NewSource(2)), 8000, 300)

	// Crash both stores at the same quiesced point and reopen. The two
	// stores saw the same store/flush history, so the same lines revert.
	p.a.EnableCrashTracking()
	p.b.EnableCrashTracking()
	runMirrored(t, wa, wb, rand.New(rand.NewSource(3)), 4000, 300)
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

	// Reuse the SAME worker contexts against the reopened stores — the
	// harshest reading of "hints must never survive a reopen": the caches
	// still hold pre-crash pointers, and every result must still match
	// the hint-free store exactly.
	wa2 := &Worker{s: a2, ctxs: wa.ctxs}
	wb2 := &Worker{s: b2, ctxs: wb.ctxs}
	runMirrored(t, wa2, wb2, rand.New(rand.NewSource(4)), 12000, 300)
	compareState(t, wa2, wb2)
}

func TestHintEquivalenceConcurrent(t *testing.T) {
	p := newHintPair(t)
	const workers = 4
	const perRange = 250
	// Each worker owns a disjoint key range, so the final state is
	// deterministic and directly comparable across the two stores even
	// though scheduling differs.
	var wg sync.WaitGroup
	for _, st := range []*Store{p.a, p.b} {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(st *Store, id int) {
				defer wg.Done()
				wk := st.NewWorker(id)
				rng := rand.New(rand.NewSource(int64(100 + id)))
				base := uint64(id*perRange) + 1
				for i := 0; i < 6000; i++ {
					k := base + uint64(rng.Intn(perRange))
					switch rng.Intn(3) {
					case 0:
						wk.PutU64(k, uint64(rng.Intn(1<<30)))
					case 1:
						wk.GetU64(k)
					case 2:
						wk.RemoveU64(k)
					}
				}
			}(st, w)
		}
	}
	wg.Wait()
	compareState(t, p.a.NewWorker(50), p.b.NewWorker(51))
}
