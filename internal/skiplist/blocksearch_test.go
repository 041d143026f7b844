package skiplist

import (
	"math/rand"
	"testing"
)

// refSearch is Function 8 as the paper states it, one key at a time: a
// linear scan from slot 1 (slot 0 is the node's first key, compared by
// the traversal). searchBlock must be indistinguishable from it on
// every snapshot, and make one comparison per slot it passes.
func refSearch(keys []uint64, key uint64) (idx, probes int) {
	for i := 1; i < len(keys); i++ {
		if keys[i] == key {
			return i, i
		}
	}
	return -1, max(len(keys)-1, 0)
}

// TestSearchBlockMatchesReference is the pure-function property test:
// random blocks shaped like nodes after splits — an ascending run of
// random length, then unordered inserts — with erased holes and
// duplicates of the probe, across sizes that exercise every unrolled
// remainder (the 4-way tail handles len%4 = 0..3 differently).
func TestSearchBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 100}
	for iter := 0; iter < 20000; iter++ {
		size := sizes[rng.Intn(len(sizes))]
		keys := make([]uint64, size)
		run := rng.Intn(size + 1)
		base := uint64(rng.Intn(50) + 1)
		for i := range keys {
			base += uint64(rng.Intn(4) + 1)
			keys[i] = base
		}
		for i := run; i < size; i++ {
			keys[i] = uint64(rng.Intn(200) + 1) // unordered tail
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
		gotIdx, gotProbes := searchBlock(keys, key)
		wantIdx, wantProbes := refSearch(keys, key)
		// Both scan in the same order, so even duplicates of key agree.
		if gotIdx != wantIdx || gotProbes != wantProbes {
			t.Fatalf("size=%d key=%d: searchBlock=(%d, %d probes) ref=(%d, %d probes) keys=%v",
				size, key, gotIdx, gotProbes, wantIdx, wantProbes, keys)
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

// blockConfigs are the geometries the list-level equivalence runs, K
// spanning less than one line to several.
func blockConfigs() []Config {
	return []Config{
		{MaxHeight: 10, KeysPerNode: 4},
		{MaxHeight: 10, KeysPerNode: 8},
		{MaxHeight: 10, KeysPerNode: 32},
	}
}

// TestBlockSearchListEquivalence drives a list through a randomized op
// stream and demands every result a map oracle predicts, then crashes it
// (reverting unflushed lines) and re-checks every key on the reopened,
// recovery-repaired nodes: the block search must read erased duplicates
// as the acknowledged writes left them.
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
