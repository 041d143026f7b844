package upskiplist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

// stampLen is the stamped value size: past 8 bytes, so every value lives
// in a slab chunk that an overwrite retires and a grace period recycles.
const stampLen = 64

// stamp is key's value at generation gen: the key and the generation,
// then a fill derived from both, so a recycled chunk read as another
// key's value, or a torn one, cannot pass checkStamp.
func stamp(key, gen uint64) []byte {
	b := make([]byte, stampLen)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], gen)
	copy(b[16:], patVal(key, gen, stampLen-16))
	return b
}

// checkStamp reports why v is not a version of key with a generation
// at most maxGen, or nil.
func checkStamp(key uint64, v []byte, maxGen uint64) error {
	if len(v) != stampLen {
		return fmt.Errorf("key %d: %d-byte value, want %d", key, len(v), stampLen)
	}
	k, gen := binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
	if k != key || gen > maxGen || !bytes.Equal(v, stamp(key, gen)) {
		return fmt.Errorf("key %d: value of key %d generation %d (newest written %d) or a torn value: %x", key, k, gen, maxGen, v[:16])
	}
	return nil
}

// stampedStore creates a store with keys 1..keys at generation 0.
func stampedStore(t *testing.T, o Options, keys uint64) *Store {
	t.Helper()
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	for k := uint64(1); k <= keys; k++ {
		if _, _, err := w.Put(k, stamp(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// countDecodes wraps every shard's value decoder with a counter.
func countDecodes(st *Store) *int {
	n := new(int)
	for _, e := range st.shards {
		e.list.SetValueDecoder(func(w uint64, dst []byte, acc *pmem.Acc) []byte {
			*n++
			return e.decodeValue(w, dst, acc)
		})
	}
	return n
}

// TestScanDecodesOnlyYieldedValues: a 4-shard Scan that stops after n
// byte-valued pairs decodes exactly n values, wherever it starts — not
// the rest of every node its four cursors snapshot.
func TestScanDecodesOnlyYieldedValues(t *testing.T) {
	o := DefaultOptions()
	o.Shards = 4
	st := stampedStore(t, o, 3000)
	decodes := countDecodes(st)
	w := st.NewWorker(1)
	for _, lo := range []uint64{1, 777, 2950} {
		for _, n := range []int{1, 2, 7, 50, 300} {
			*decodes = 0
			got := 0
			if err := w.Scan(lo, KeyMax, func(k uint64, v []byte) bool {
				if err := checkStamp(k, v, 0); err != nil {
					t.Fatal(err)
				}
				got++
				return got < n
			}); err != nil {
				t.Fatal(err)
			}
			if want := min(n, 3001-int(lo)); got != want || *decodes != got {
				t.Errorf("scan from %d stopping after %d pairs: %d yielded (want %d), %d values decoded", lo, n, got, want, *decodes)
			}
		}
	}
}

// TestScanLazyDecodeUnderOverwrites: one worker scans a 4-shard store of
// 64-byte values while a second overwrites the same keys with stamped
// values, so the chunks behind the words a cursor has buffered are
// retired, freed and reused by other puts. Every yielded value must be
// a version of its key that was written. Decoding lazily without the
// scan's pin reads a recycled chunk here.
func TestScanLazyDecodeUnderOverwrites(t *testing.T) {
	const keys = 2000
	o := DefaultOptions()
	o.Shards = 4
	o.KeysPerNode = 32 // a long-lived node buffer: many retires pass while it is read

	t.Run("in-callback", func(t *testing.T) {
		st := stampedStore(t, o, keys)
		gen := make([]uint64, keys+1)
		scanner, writer := st.NewWorker(1), st.NewWorker(2)
		rng := rand.New(rand.NewSource(46))
		yielded := 0
		if err := scanner.Scan(KeyMin, KeyMax, func(k uint64, v []byte) bool {
			if err := checkStamp(k, v, gen[k]); err != nil {
				t.Fatal(err)
			}
			yielded++
			// Overwrite the keys just ahead, which the cursors have
			// buffered, and enough others to close and free limbo
			// batches.
			for j := uint64(1); j <= 24; j++ {
				key := k + j
				if j > 8 {
					key = 1 + uint64(rng.Intn(keys))
				}
				if key > keys {
					continue
				}
				gen[key]++
				if _, _, err := writer.Put(key, stamp(key, gen[key])); err != nil {
					t.Fatal(err)
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if yielded != keys {
			t.Fatalf("scan yielded %d pairs, want %d", yielded, keys)
		}
		if st.SlabStats().ChunksFreed == 0 {
			t.Fatal("no chunk was freed: the overwrites recycled nothing")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		st := stampedStore(t, o, keys)
		// gen[k] is raised before the put of that generation starts, so
		// every value a scan can observe has a generation <= gen[k].
		gen := make([]atomic.Uint64, keys+1)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := st.NewWorker(2)
			rng := rand.New(rand.NewSource(47))
			for !stop.Load() {
				k := 1 + uint64(rng.Intn(keys))
				g := gen[k].Add(1)
				if _, _, err := w.Put(k, stamp(k, g)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		scanner := st.NewWorker(1)
		scans := 20
		if raceEnabled {
			scans = 4
		}
		for i := 0; i < scans; i++ {
			n := 0
			if err := scanner.Scan(KeyMin, KeyMax, func(k uint64, v []byte) bool {
				if err := checkStamp(k, v, gen[k].Load()); err != nil {
					t.Error(err)
					return false
				}
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != keys {
				t.Errorf("scan %d yielded %d pairs, want %d", i, n, keys)
			}
		}
		stop.Store(true)
		wg.Wait()
		if st.SlabStats().ChunksFreed == 0 {
			t.Fatal("no chunk was freed: the overwrites recycled nothing")
		}
	})
}

// TestScanPinBound: a 10 000-key scan does not hold the limbo for its
// whole length. Its callback has a second worker overwrite the pair it
// was handed, which retires a chunk per pair; with the pin renewed every
// skiplist.ScanPinPairs pairs, chunks retired behind the renewal are
// freed before the scan ends.
func TestScanPinBound(t *testing.T) {
	const keys = 10_000
	o := DefaultOptions()
	o.Shards = 4
	st := stampedStore(t, o, keys) // nothing retired yet: the limbo is empty
	scanner, writer := st.NewWorker(1), st.NewWorker(2)
	before := st.SlabStats().ChunksFreed
	var during uint64
	n := 0
	if err := scanner.Scan(KeyMin, KeyMax, func(k uint64, v []byte) bool {
		if _, _, err := writer.Put(k, stamp(k, 1)); err != nil {
			t.Fatal(err)
		}
		n++
		during = st.SlabStats().ChunksFreed
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != keys {
		t.Fatalf("scan yielded %d pairs, want %d", n, keys)
	}
	if during == before {
		t.Fatalf("no chunk freed during a %d-pair scan (%d retired): the scan held its pin throughout", n, st.SlabStats().ChunksRetired)
	}
	t.Logf("%d chunks freed during the scan, renewing its pin every %d pairs", during-before, skiplist.ScanPinPairs)
}

// TestIteratorValueContract: the public Iterator's Value slice, read
// after Seek or Next returned — no pin held — is the value the node held
// when the cursor snapshotted it, and stays byte-correct until the
// cursor leaves the node, while another worker overwrites every key and
// recycles its chunks between the cursor's calls. Decoding only after
// the pin that read the node's value words has dropped reads those
// recycled chunks.
func TestIteratorValueContract(t *testing.T) {
	const keys = 8 // one node: the cursor never leaves it
	o := DefaultOptions()
	o.KeysPerNode = 32
	st := stampedStore(t, o, keys)
	w := st.NewWorker(2)
	gen := uint64(0)
	storm := func() {
		for i := 0; i < 256; i++ {
			gen++
			for k := uint64(1); k <= keys; k++ {
				if _, _, err := w.Put(k, stamp(k, gen)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	it := st.NewWorker(1).Iterator()
	var held [][]byte
	freed := st.SlabStats().ChunksFreed
	for ok := it.Seek(KeyMin); ok; ok = it.Next() {
		storm()
		held = append(held, it.Value())
		for i, v := range held {
			// Seek snapshotted the node before the first storm.
			if k := uint64(i + 1); !bytes.Equal(v, stamp(k, 0)) {
				t.Fatalf("at key %d: key %d's Value is not the value the node held at Seek: %x", it.Key(), k, v[:min(16, len(v))])
			}
		}
	}
	if len(held) != keys {
		t.Fatalf("iterated %d pairs, want %d", len(held), keys)
	}
	if st.SlabStats().ChunksFreed == freed {
		t.Fatal("no chunk was freed: the storms recycled nothing")
	}
}

// TestIteratorValueContractInsideScan: a cursor opened inside a Scan
// callback, on the scanning worker, moves under the scan's pin. It must
// still decode what it buffers before its own move returns: read after
// Scan has returned and its pin has dropped, and after another worker
// has overwritten every key and recycled the chunks, its values are the
// ones the node held when the cursor snapshotted it.
func TestIteratorValueContractInsideScan(t *testing.T) {
	const keys = 8 // one node: the cursor never leaves it
	o := DefaultOptions()
	o.KeysPerNode = 32
	st := stampedStore(t, o, keys)
	w := st.NewWorker(1)
	var it Iterator
	if err := w.Scan(KeyMin, KeyMax, func(uint64, []byte) bool {
		it = w.Iterator()
		it.Seek(KeyMin)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	freed := st.SlabStats().ChunksFreed
	other := st.NewWorker(2)
	for gen := uint64(1); gen <= 256; gen++ {
		for k := uint64(1); k <= keys; k++ {
			if _, _, err := other.Put(k, stamp(k, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st.SlabStats().ChunksFreed == freed {
		t.Fatal("no chunk was freed: the overwrites recycled nothing")
	}
	n := uint64(0)
	for ok := it.Valid(); ok; ok = it.Next() {
		n++
		if k := it.Key(); k != n || !bytes.Equal(it.Value(), stamp(k, 0)) {
			t.Fatalf("pair %d: key %d's Value is not the value the node held at Seek", n, k)
		}
	}
	if n != keys {
		t.Fatalf("iterated %d pairs, want %d", n, keys)
	}
}
