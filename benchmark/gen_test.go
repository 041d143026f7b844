package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// inputHash digests everything a workload feeds the program at a seed:
// the preload order, the first 10 000 operations of every driver's
// stream, and the bytes of the first value written.
func inputHash(sp Spec, seed uint64) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, k := range Preload(sp.Keys, seed) {
		put(k)
	}
	z := newZipf(uint64(sp.Keys))
	val := make([]byte, sp.ValueLen)
	for d := 0; d < sp.Drivers; d++ {
		ops := make([]Op, 10_000)
		NewStream(sp.Law, z, sp.Keys, seed, d, sp.Drivers).Fill(ops)
		for _, op := range ops {
			put(uint64(op.Kind)<<48 | uint64(op.N)<<32 | uint64(op.Ver))
			put(op.Key)
		}
		FillValue(val, ops[0].Key, ops[0].Ver)
		h.Write(val)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestInputsPinned fails when the generated inputs drift: a change to
// the generator, the value encoding or a workload's definition makes
// results incomparable with earlier commits and must be a deliberate
// change to the benchmark (update the hashes, re-measure the baseline).
// The Zipfian draw uses math.Pow, so the hashes are those of amd64 and
// any other port that does not fuse multiply-adds.
func TestInputsPinned(t *testing.T) {
	golden := map[string]string{
		"point-a-1w": "232f16720aa2ee8e",
		"point-a-2w": "b2c4de79568f09c4",
		"value-1k":   "999a1de0189dfa20",
		"scan-e-4s":  "8c1e7f3664aca8c1",
		"churn-4k":   "ca0f526ded1d3e8b",
		"wire-a-d1":  "2af39b0b8256a2d7",
		"wire-a-d16": "2af39b0b8256a2d7",
	}
	for _, sp := range Workloads {
		if got := inputHash(sp, 1); got != golden[sp.Name] {
			t.Errorf("%s: inputs at seed 1 hash to %s, pinned %s", sp.Name, got, golden[sp.Name])
		}
	}
	if a, b := inputHash(Workloads[0], 1), inputHash(Workloads[0], 2); a == b {
		t.Errorf("seeds 1 and 2 generate the same inputs")
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, n := range []int{8, 16, 64, 1024} {
		buf := make([]byte, n)
		FillValue(buf, 42, 7)
		if ver, ok := CheckValue(buf, 42, n); !ok || ver != 7 {
			t.Errorf("len %d: own value rejected (ver %d ok %v)", n, ver, ok)
		}
		if _, ok := CheckValue(buf, 43, n); ok {
			t.Errorf("len %d: value accepted for another key", n)
		}
		if _, ok := CheckValue(buf[:n-8], 42, n); ok && n > 8 {
			t.Errorf("len %d: truncated value accepted", n)
		}
		if n > 16 {
			torn := make([]byte, n)
			FillValue(torn, 42, 8)
			copy(torn[:n/2], buf[:n/2]) // first half version 7, second half version 8
			if _, ok := CheckValue(torn, 42, n); ok {
				t.Errorf("len %d: torn value accepted", n)
			}
		}
	}
}
