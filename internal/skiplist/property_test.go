package skiplist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"upskiplist/internal/exec"
)

// TestQuickModelEquivalence drives randomized op sequences over random
// geometries against a map model (property-based version of the model
// test).
func TestQuickModelEquivalence(t *testing.T) {
	f := func(seed int64, heightRaw, keysRaw uint8) bool {
		cfg := Config{
			MaxHeight:   int(heightRaw%12) + 2,
			KeysPerNode: int(keysRaw%9) + 1,
		}
		e := newEnv(t, cfg)
		ctx := ctx0()
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			k := uint64(rng.Intn(120) + 1)
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Uint64() >> 1
				old, existed, err := e.sl.Insert(ctx, k, v)
				if err != nil {
					return false
				}
				mv, mok := model[k]
				if existed != mok || (mok && old != mv) {
					return false
				}
				model[k] = v
			case 2:
				v, ok := e.sl.Get(ctx, k)
				mv, mok := model[k]
				if ok != mok || (ok && v != mv) {
					return false
				}
			default:
				old, existed, err := e.sl.Remove(ctx, k)
				if err != nil {
					return false
				}
				mv, mok := model[k]
				if existed != mok || (mok && old != mv) {
					return false
				}
				delete(model, k)
			}
		}
		return e.sl.Count(ctx) == len(model) && e.sl.CheckInvariants(ctx) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScanMatchesModel: every scan over a random range returns
// exactly the model's keys in that range, sorted.
func TestQuickScanMatchesModel(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(400) + 1)
		if rng.Intn(3) == 0 {
			e.sl.Remove(ctx, k)
			delete(model, k)
		} else {
			v := rng.Uint64() >> 1
			e.sl.Insert(ctx, k, v)
			model[k] = v
		}
	}
	f := func(a, b uint16) bool {
		lo, hi := uint64(a%450)+1, uint64(b%450)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []uint64
		for k := range model {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		e.sl.Scan(ctx, lo, hi, func(k, v uint64) bool {
			if model[k] != v {
				return false
			}
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScansSeeConsistentNodes runs scans against concurrent
// writers; every returned pair must carry a value some writer actually
// wrote for that key (values are key-derived so torn reads would show).
func TestConcurrentScansSeeConsistentNodes(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 8})
	ctx := ctx0()
	const keyspace = 300
	for k := uint64(1); k <= keyspace; k++ {
		e.sl.Insert(ctx, k, k*1000)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wctx := exec.NewCtx(id+1, 0)
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keyspace) + 1)
				// Values always k*1000 + small delta: torn/foreign values
				// are detectable.
				e.sl.Insert(wctx, k, k*1000+uint64(rng.Intn(999)))
			}
		}(w)
	}
	sctx := exec.NewCtx(9, 0)
	for i := 0; i < 300; i++ {
		prev := uint64(0)
		e.sl.Scan(sctx, 1, keyspace, func(k, v uint64) bool {
			if k <= prev {
				t.Errorf("scan out of order: %d after %d", k, prev)
				return false
			}
			prev = k
			if v/1000 != k {
				t.Errorf("key %d has foreign value %d", k, v)
				return false
			}
			return true
		})
	}
	close(stop)
	wg.Wait()
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeightsBounded: inserted nodes never exceed MaxHeight and the
// structure stays balanced enough that lookups touch a bounded number of
// nodes (sanity check on the geometric height draw).
func TestQuickHeightsBounded(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 6, KeysPerNode: 1})
	ctx := ctx0()
	for i := 1; i <= 2000; i++ {
		e.sl.Insert(ctx, uint64(i), uint64(i))
	}
	st := e.sl.Stats(ctx)
	if st.MaxLinked > 6 {
		t.Fatalf("node height %d exceeds max 6", st.MaxLinked)
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTombstoneChurn alternates inserting and removing the same keys to
// stress slot reuse inside nodes.
func TestTombstoneChurn(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	for round := 0; round < 50; round++ {
		for k := uint64(1); k <= 40; k++ {
			if _, _, err := e.sl.Insert(ctx, k, uint64(round)*100+k); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(1); k <= 40; k += 2 {
			if _, existed, _ := e.sl.Remove(ctx, k); !existed {
				t.Fatalf("round %d: key %d missing at remove", round, k)
			}
		}
	}
	// Odd keys removed in the last round; even keys present.
	for k := uint64(1); k <= 40; k++ {
		_, ok := e.sl.Get(ctx, k)
		if k%2 == 0 && !ok {
			t.Fatalf("even key %d missing", k)
		}
		if k%2 == 1 && ok {
			t.Fatalf("odd key %d present", k)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}
