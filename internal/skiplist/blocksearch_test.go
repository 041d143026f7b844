package skiplist

import (
	"math/rand"
	"testing"
)

// refSearch is the per-word reference that scanInternalKeys' slow path
// implements: binary search over the sorted prefix [1, sorted) with
// erased slots steering left, then a linear scan of the unsorted tail.
// searchBlock must be indistinguishable from it on every snapshot.
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

// TestBlockSearchListEquivalence drives two lists — block search on vs
// off — through identical randomized op streams and demands identical
// results, then crashes both (reverting unflushed lines) and re-checks
// every key on the reopened, recovery-repaired nodes.
func TestBlockSearchListEquivalence(t *testing.T) {
	for _, cfg := range blockConfigs() {
		fast := newEnv(t, cfg)
		slow := newEnv(t, cfg)
		slow.sl.SetTuning(Tuning{Reference: true})

		ctxF, ctxS := ctx0(), ctx0()
		rng := rand.New(rand.NewSource(23))
		const keyspace = 600
		for i := 0; i < 12000; i++ {
			k := uint64(rng.Intn(keyspace)) + 1
			switch rng.Intn(4) {
			case 0, 1:
				v := uint64(rng.Intn(1 << 20))
				oF, eF, errF := fast.sl.Insert(ctxF, k, v)
				oS, eS, errS := slow.sl.Insert(ctxS, k, v)
				if oF != oS || eF != eS || (errF == nil) != (errS == nil) {
					t.Fatalf("K=%d Insert(%d) diverged: (%d,%v,%v) vs (%d,%v,%v)",
						cfg.KeysPerNode, k, oF, eF, errF, oS, eS, errS)
				}
			case 2:
				vF, okF := fast.sl.Get(ctxF, k)
				vS, okS := slow.sl.Get(ctxS, k)
				if vF != vS || okF != okS {
					t.Fatalf("K=%d Get(%d) diverged: (%d,%v) vs (%d,%v)",
						cfg.KeysPerNode, k, vF, okF, vS, okS)
				}
			case 3:
				oF, eF, _ := fast.sl.Remove(ctxF, k)
				oS, eS, _ := slow.sl.Remove(ctxS, k)
				if oF != oS || eF != eS {
					t.Fatalf("K=%d Remove(%d) diverged", cfg.KeysPerNode, k)
				}
			}
		}

		// Crash both: tracking from here, a burst of updates, then revert
		// unflushed lines and reopen. Both lists saw the same store/flush
		// sequence, so the same state survives; the block path must read
		// recovery-repaired nodes (erased duplicates, restored sorted
		// prefixes) identically to the per-word path.
		fast.pool.EnableTracking()
		slow.pool.EnableTracking()
		for i := 0; i < 3000; i++ {
			k := uint64(rng.Intn(keyspace)) + 1
			v := uint64(rng.Intn(1 << 20))
			fast.sl.Insert(ctxF, k, v)
			slow.sl.Insert(ctxS, k, v)
		}
		fast.pool.Crash()
		slow.pool.Crash()
		fast = fast.reopen(t)
		slow = slow.reopen(t)
		// Open comes back with the default tuning; re-pin the reference
		// list (the volatile-tuning contract Reopen/Load follow at store
		// level).
		slow.sl.SetTuning(Tuning{Reference: true, TowerBranch: 2})
		ctxF2, ctxS2 := ctx0(), ctx0()
		for k := uint64(1); k <= keyspace; k++ {
			vF, okF := fast.sl.Get(ctxF2, k)
			vS, okS := slow.sl.Get(ctxS2, k)
			if vF != vS || okF != okS {
				t.Fatalf("K=%d post-crash Get(%d) diverged: (%d,%v) vs (%d,%v)",
					cfg.KeysPerNode, k, vF, okF, vS, okS)
			}
		}
		if err := fast.sl.CheckInvariants(ctxF2); err != nil {
			t.Fatalf("K=%d fast-path invariants after crash: %v", cfg.KeysPerNode, err)
		}
		if ctxF.Path.KeysProbed == 0 || ctxS.Path.KeysProbed == 0 {
			t.Fatal("KeysProbed counters never moved")
		}
	}
}
