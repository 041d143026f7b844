package skiplist

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"upskiplist/internal/pmem"
)

func TestIteratorFullTraversal(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for _, i := range rand.New(rand.NewSource(5)).Perm(300) {
		e.sl.Insert(ctx, uint64(i+1), uint64(i+1)*7)
	}
	it := e.sl.NewIterator(ctx)
	if !it.Seek(1) {
		t.Fatal("seek failed")
	}
	want := uint64(1)
	for {
		if it.Key() != want || it.Value() != want*7 {
			t.Fatalf("at %d/%d, want key %d", it.Key(), it.Value(), want)
		}
		want++
		if !it.Next() {
			break
		}
	}
	if want != 301 {
		t.Fatalf("iterated %d keys, want 300", want-1)
	}
	if it.Valid() {
		t.Fatal("iterator valid after exhaustion")
	}
}

func TestIteratorSeekMidAndPastEnd(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	for i := uint64(1); i <= 50; i++ {
		e.sl.Insert(ctx, i*10, i)
	}
	it := e.sl.NewIterator(ctx)
	if !it.Seek(95) || it.Key() != 100 {
		t.Fatalf("seek 95 landed on %d", it.Key())
	}
	if !it.Seek(500) || it.Key() != 500 {
		t.Fatalf("exact seek landed on %d", it.Key())
	}
	if it.Seek(501) {
		t.Fatalf("seek past end landed on %d", it.Key())
	}
	// Empty list.
	e2 := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	if e2.sl.NewIterator(ctx0()).Seek(1) {
		t.Fatal("seek on empty list succeeded")
	}
}

func TestIteratorSkipsTombstones(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	for i := uint64(1); i <= 30; i++ {
		e.sl.Insert(ctx, i, i)
	}
	// Tombstone a whole node's worth in the middle.
	for i := uint64(9); i <= 16; i++ {
		e.sl.Remove(ctx, i)
	}
	it := e.sl.NewIterator(ctx)
	var keys []uint64
	for ok := it.Seek(1); ok; ok = it.Next() {
		keys = append(keys, it.Key())
	}
	if len(keys) != 22 {
		t.Fatalf("saw %d keys: %v", len(keys), keys)
	}
	for _, k := range keys {
		if k >= 9 && k <= 16 {
			t.Fatalf("tombstoned key %d returned", k)
		}
	}
}

func TestIteratorAgainstScan(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 8})
	ctx := ctx0()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(500) + 1)
		if rng.Intn(4) == 0 {
			e.sl.Remove(ctx, k)
		} else {
			e.sl.Insert(ctx, k, k*3)
		}
	}
	var fromScan []uint64
	e.sl.Scan(ctx, 1, 500, func(k, v uint64) bool {
		fromScan = append(fromScan, k)
		return true
	})
	var fromIter []uint64
	it := e.sl.NewIterator(ctx)
	for ok := it.Seek(1); ok; ok = it.Next() {
		fromIter = append(fromIter, it.Key())
	}
	if len(fromScan) != len(fromIter) {
		t.Fatalf("scan %d keys, iterator %d", len(fromScan), len(fromIter))
	}
	for i := range fromScan {
		if fromScan[i] != fromIter[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, fromScan[i], fromIter[i])
		}
	}
}

// TestIteratorUndecodedOutsidePinPanics: a NewIterator cursor decodes
// what its move buffered before its own pin drops, even under an outer
// pin. A NewScanIterator cursor moved under an outer pin buffers its
// node's value words undecoded; reading one after that pin dropped would
// decode a word no pin covers, which is a program bug, so ValueBytes
// panics instead of reading a possibly recycled chunk.
func TestIteratorUndecodedOutsidePinPanics(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 8})
	decodes := 0
	e.sl.SetValueDecoder(func(w uint64, dst []byte, _ *pmem.Acc) []byte {
		decodes++
		return binary.LittleEndian.AppendUint64(dst, w)
	})
	ctx := ctx0()
	for k := uint64(1); k <= 5; k++ {
		e.sl.Insert(ctx, k, k*10)
	}
	own := e.sl.NewIterator(ctx)
	e.sl.Pin(ctx)
	own.Seek(1)
	e.sl.Unpin(ctx)
	if v := own.ValueBytes(); binary.LittleEndian.Uint64(v) != 10 || decodes != 5 {
		t.Fatalf("NewIterator cursor after the outer pin dropped: %x after %d decodes, want 10 after 5", v, decodes)
	}
	decodes = 0
	it := e.sl.NewScanIterator(ctx)
	e.sl.Pin(ctx)
	if !it.Seek(1) || !it.Next() {
		t.Fatal("seek failed")
	}
	if decodes != 0 {
		t.Fatalf("%d values decoded by moves nested in an outer pin, want 0", decodes)
	}
	if v := it.ValueBytes(); binary.LittleEndian.Uint64(v) != 20 || decodes != 1 {
		t.Fatalf("ValueBytes under the pin: %x after %d decodes, want 20 after 1", v, decodes)
	}
	e.sl.Unpin(ctx)
	if v := it.ValueBytes(); binary.LittleEndian.Uint64(v) != 20 {
		t.Fatalf("decoded pair read after the pin dropped: %x", v)
	}
	e.sl.Pin(ctx)
	it.Seek(1)
	e.sl.Unpin(ctx)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "undecoded pair with no era pin held") {
			t.Fatalf("ValueBytes of an undecoded pair with no pin held: recovered %v, want the named panic", r)
		}
	}()
	it.ValueBytes()
}
