package skiplist

import (
	"math/rand"
	"testing"
)

// refSearch is Function 8 as the paper states it, one key at a time:
// binary search over the sorted prefix [1, sorted) with erased slots
// steering left, then a linear scan of the unsorted tail. searchBlock
// must be indistinguishable from it on every snapshot.
func refSearch(keys []uint64, key uint64, sorted int) int {
	if sorted > len(keys) {
		sorted = len(keys)
	}
	start := 1
	if sorted > 1 {
		lo, hi := 1, sorted-1
		for lo <= hi {
			mid := int(uint(lo+hi) >> 1)
			k := keys[mid]
			switch {
			case k == key:
				return mid
			case k != keyEmpty && k < key:
				lo = mid + 1
			default:
				hi = mid - 1
			}
		}
		start = sorted
	}
	for i := start; i < len(keys); i++ {
		if keys[i] == key {
			return i
		}
	}
	return -1
}

// TestSearchBlockMatchesReference is the pure-function property test:
// random blocks with random sorted-prefix lengths, erased holes and
// duplicates of the probe, across sizes that exercise every unrolled
// remainder (the 4-way tail handles len%4 = 0..3 differently).
func TestSearchBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 100}
	for iter := 0; iter < 20000; iter++ {
		size := sizes[rng.Intn(len(sizes))]
		keys := make([]uint64, size)
		// A sorted prefix of random length (occasionally out of range, as
		// a clamping check), erased holes punched at random.
		sorted := rng.Intn(size + 3)
		base := uint64(rng.Intn(50) + 1)
		for i := range keys {
			base += uint64(rng.Intn(4) + 1)
			keys[i] = base
		}
		for i := sorted; i < size; i++ {
			keys[i] = uint64(rng.Intn(200) + 1) // unsorted tail
		}
		for p := 0; p < size/4; p++ {
			keys[rng.Intn(size)] = keyEmpty
		}
		var key uint64
		if rng.Intn(2) == 0 && size > 0 {
			key = keys[rng.Intn(size)] // usually probe a present key
		}
		if key == keyEmpty {
			key = uint64(rng.Intn(300) + 1)
		}
		gotIdx, gotProbes := searchBlock(keys, key, sorted)
		wantIdx := refSearch(keys, key, sorted)
		// Slot indices must agree exactly; when the tail holds duplicates
		// of key both paths scan in the same order, so even ties match.
		if gotIdx != wantIdx {
			t.Fatalf("size=%d sorted=%d key=%d: searchBlock=%d ref=%d keys=%v",
				size, sorted, key, gotIdx, wantIdx, keys)
		}
		if gotProbes < 0 || gotProbes > size+1 {
			t.Fatalf("probe count %d out of range for size %d", gotProbes, size)
		}
	}
}

// TestSearchBlockInsertFirstEmpty pins the claim-slot contract: found
// wins over empty, and empty is always the LOWEST empty slot — the
// property that makes concurrent same-key inserters converge.
func TestSearchBlockInsertFirstEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10000; iter++ {
		size := rng.Intn(64) + 1
		keys := make([]uint64, size)
		for i := range keys {
			if rng.Intn(3) == 0 {
				keys[i] = keyEmpty
			} else {
				keys[i] = uint64(rng.Intn(100) + 1)
			}
		}
		key := uint64(rng.Intn(100) + 1)
		found, empty, _ := searchBlockInsert(keys, key)
		wantFound, wantEmpty := -1, -1
		for i, k := range keys {
			if k == key {
				wantFound = i
				break
			}
			if k == keyEmpty && wantEmpty < 0 {
				wantEmpty = i
			}
		}
		if found != wantFound {
			t.Fatalf("found = %d, want %d (keys=%v key=%d)", found, wantFound, keys, key)
		}
		if found < 0 && empty != wantEmpty {
			t.Fatalf("empty = %d, want %d (keys=%v)", empty, wantEmpty, keys)
		}
	}
}

// blockConfigs are the geometries the list-level equivalence runs: the
// prefix-heavy sorted mode and the unsorted mode, K spanning less than
// one line to several.
func blockConfigs() []Config {
	return []Config{
		{MaxHeight: 10, KeysPerNode: 4, SortedNodes: true},
		{MaxHeight: 10, KeysPerNode: 8},
		{MaxHeight: 10, KeysPerNode: 32, SortedNodes: true},
	}
}

// TestBlockSearchListEquivalence drives a list through a randomized op
// stream and demands every result a map oracle predicts, then crashes it
// (reverting unflushed lines) and re-checks every key on the reopened,
// recovery-repaired nodes: the block search must read erased duplicates
// and restored sorted prefixes as the acknowledged writes left them.
func TestBlockSearchListEquivalence(t *testing.T) {
	for _, cfg := range blockConfigs() {
		e := newEnv(t, cfg)
		ctx := ctx0()
		oracle := map[uint64]uint64{}
		insert := func(k, v uint64) {
			t.Helper()
			old, existed, err := e.sl.Insert(ctx, k, v)
			want, present := oracle[k]
			if err != nil || existed != present || (present && old != want) {
				t.Fatalf("K=%d Insert(%d) = (%d,%v,%v), oracle (%d,%v)",
					cfg.KeysPerNode, k, old, existed, err, want, present)
			}
			oracle[k] = v
		}
		rng := rand.New(rand.NewSource(23))
		const keyspace = 600
		for i := 0; i < 12000; i++ {
			k := uint64(rng.Intn(keyspace)) + 1
			switch rng.Intn(4) {
			case 0, 1:
				insert(k, uint64(rng.Intn(1<<20)))
			case 2:
				v, ok := e.sl.Get(ctx, k)
				if want, present := oracle[k]; ok != present || v != want {
					t.Fatalf("K=%d Get(%d) = (%d,%v), oracle (%d,%v)",
						cfg.KeysPerNode, k, v, ok, want, present)
				}
			case 3:
				old, existed, err := e.sl.Remove(ctx, k)
				want, present := oracle[k]
				if err != nil || existed != present || (present && old != want) {
					t.Fatalf("K=%d Remove(%d) = (%d,%v,%v), oracle (%d,%v)",
						cfg.KeysPerNode, k, old, existed, err, want, present)
				}
				delete(oracle, k)
			}
		}

		// Crash: tracking from here, a burst of updates, then revert
		// unflushed lines and reopen. Every insert returned durable, so
		// the oracle is what must survive.
		e.pool.EnableTracking()
		for i := 0; i < 3000; i++ {
			insert(uint64(rng.Intn(keyspace))+1, uint64(rng.Intn(1<<20)))
		}
		e.pool.Crash()
		e = e.reopen(t)
		ctx2 := ctx0()
		for k := uint64(1); k <= keyspace; k++ {
			v, ok := e.sl.Get(ctx2, k)
			if want, present := oracle[k]; ok != present || v != want {
				t.Fatalf("K=%d post-crash Get(%d) = (%d,%v), oracle (%d,%v)",
					cfg.KeysPerNode, k, v, ok, want, present)
			}
		}
		if err := e.sl.CheckInvariants(ctx2); err != nil {
			t.Fatalf("K=%d invariants after crash: %v", cfg.KeysPerNode, err)
		}
		if ctx.Path.KeysProbed == 0 || ctx2.Path.KeysProbed == 0 {
			t.Fatal("KeysProbed counters never moved")
		}
	}
}
