package upskiplist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"upskiplist/internal/riv"
	"upskiplist/internal/skiplist"
)

// Load coverage at the dump boundary: the v4 sidecar (dump kind +
// options) over physical pool images or a sorted pairs stream is the one
// format Load reads. Everything else — sidecars of earlier revisions,
// options no Save can have written, pairs streams that are out of order,
// truncated or oversize — must come back as ErrBadDump, never a panic.

// writeMetaLine replaces dir's meta sidecar with a line of the given
// version tag (and, from v4 on, dump kind) built from o.
func writeMetaLine(t testing.TB, dir, tag string, o Options) {
	t.Helper()
	line := fmt.Sprintf("%s %d %d 0 %d %d %d %d %d %d %d %d\n",
		tag, o.MaxHeight, o.KeysPerNode, o.NUMANodes, int(o.Placement),
		o.PoolWords, o.ChunkWords, o.MaxChunks, o.NumArenas, o.NumThreads, o.Shards)
	if err := os.WriteFile(filepath.Join(dir, "meta.upsl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dumpPair is one record of a hand-built pairs.upsl.
type dumpPair struct {
	key uint64
	val []byte
}

// pairsBytes encodes a v4 pairs stream: the count header as given (so a
// test can lie in it), then key, 32-bit length and bytes per record.
func pairsBytes(count uint64, recs []dumpPair) []byte {
	out := binary.LittleEndian.AppendUint64(nil, count)
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, r.key)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.val)))
		out = append(out, r.val...)
	}
	return out
}

// pairsDumpOptions is the small 2-shard geometry the hand-built pairs
// dumps (and FuzzLoadPairs) declare in their sidecar.
func pairsDumpOptions() Options {
	o := testOptions()
	o.Shards = 2
	o.PoolWords = 1 << 18
	o.MaxChunks = 64
	return o
}

// writePairsDump lays out a logical dump directory around the given
// pairs.upsl bytes.
func writePairsDump(t testing.TB, pairs []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pairs.upsl"), pairs, 0o644); err != nil {
		t.Fatal(err)
	}
	writeMetaLine(t, dir, "v4 pairs", pairsDumpOptions())
	return dir
}

// somePairs returns n ascending records with mixed-size values.
func somePairs(n uint64) []dumpPair {
	recs := make([]dumpPair, 0, n)
	for k := uint64(1); k <= n; k++ {
		recs = append(recs, dumpPair{k * 3, genVal(k, 0)})
	}
	return recs
}

func TestLoadRejectsOldAndUnsortedDumps(t *testing.T) {
	st, err := Create(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	for k := uint64(1); k <= 50; k++ {
		if _, _, err := w.PutU64(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	physDir := t.TempDir()
	if err := st.Save(physDir); err != nil {
		t.Fatal(err)
	}
	o := st.Options()
	// phys rewrites the saved dump's sidecar; the pool images stay.
	phys := func(line string) func(testing.TB) string {
		return func(t testing.TB) string {
			if err := os.WriteFile(filepath.Join(physDir, "meta.upsl"), []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
			return physDir
		}
	}
	physTag := func(tag string, o Options) func(testing.TB) string {
		return func(t testing.TB) string {
			writeMetaLine(t, physDir, tag, o)
			return physDir
		}
	}
	pairs := func(b []byte) func(testing.TB) string {
		return func(t testing.TB) string { return writePairsDump(t, b) }
	}
	with := func(o Options, edit func(*Options)) Options {
		edit(&o)
		return o
	}
	good := somePairs(40)
	swapped := append([]dumpPair(nil), good...)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	oversize := pairsBytes(41, good)
	oversize = binary.LittleEndian.AppendUint64(oversize, 1000)
	oversize = binary.LittleEndian.AppendUint32(oversize, MaxValueLen+1)

	for _, tc := range []struct {
		name     string
		dir      func(testing.TB) string
		unsorted bool
	}{
		{"v1 sidecar", phys(fmt.Sprintf("v1 %d %d 0 1 0 %d %d %d %d %d\n",
			o.MaxHeight, o.KeysPerNode, o.PoolWords, o.ChunkWords, o.MaxChunks, o.NumArenas, o.NumThreads)), false},
		{"v2 sidecar", physTag("v2", o), false},
		{"v3 sidecar", func(t testing.TB) string {
			dir := writePairsDump(t, pairsBytes(40, good))
			writeMetaLine(t, dir, "v3", pairsDumpOptions())
			return dir
		}, false},
		{"empty sidecar", phys(""), false},
		{"truncated sidecar", phys("v4 phys 12 8 0 1\n"), false},
		{"unknown dump kind", physTag("v4 logical", o), false},
		{"placement out of range", physTag("v4 phys", with(o, func(o *Options) { o.Placement = 7 })), false},
		{"bad geometry", physTag("v4 phys", with(o, func(o *Options) { o.KeysPerNode = 70000 })), false},
		{"zero shards", physTag("v4 phys", with(o, func(o *Options) { o.Shards = 0 })), false},
		// 60 bytes that used to die in make([]*engine, n): fatal error,
		// out of memory — not a panic a caller could recover.
		{"hostile shard count", phys("v4 phys 16 16 0 1 0 4194304 16384 1024 4 128 2000000000000\n"), false},
		{"more shards than pool files", physTag("v4 phys", with(o, func(o *Options) { o.Shards = 2 })), false},
		{"pairs without pairs.upsl", func(t testing.TB) string {
			dir := t.TempDir()
			writeMetaLine(t, dir, "v4 pairs", pairsDumpOptions())
			return dir
		}, false},
		{"two records swapped", pairs(pairsBytes(40, swapped)), true},
		{"count above records", pairs(pairsBytes(41, good)), false},
		{"header only", pairs(pairsBytes(3, nil)), false},
		{"short header", pairs([]byte{1, 0, 0}), false},
		{"value cut short", pairs(pairsBytes(40, good)[:200]), false},
		{"oversize value length", pairs(oversize), false},
		{"key zero", pairs(pairsBytes(1, []dumpPair{{0, []byte("x")}})), false},
		{"dump larger than its pools", pairs(pairsBytes(8, func() []dumpPair {
			big := make([]byte, MaxValueLen)
			var recs []dumpPair
			for k := uint64(1); k <= 8; k++ {
				recs = append(recs, dumpPair{k, big})
			}
			return recs
		}())), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Load(tc.dir(t))
			if !errors.Is(err, ErrBadDump) {
				t.Fatalf("Load: store=%v err=%v, want ErrBadDump", st != nil, err)
			}
			if st != nil {
				t.Fatal("a failed Load returned a store")
			}
			if got := errors.Is(err, skiplist.ErrUnsorted); got != tc.unsorted {
				t.Fatalf("errors.Is(err, ErrUnsorted) = %v, want %v (%v)", got, tc.unsorted, err)
			}
		})
	}

	// The same directories load once their sidecar is the one Save wrote.
	writeMetaLine(t, physDir, "v4 phys", o)
	if _, err := Load(physDir); err != nil {
		t.Fatalf("restored phys sidecar: %v", err)
	}
	if _, err := Load(writePairsDump(t, pairsBytes(40, good))); err != nil {
		t.Fatalf("hand-built sorted pairs dump: %v", err)
	}
}

// FuzzLoadPairs feeds arbitrary bytes to Load as the pairs.upsl of a
// fixed, valid 2-shard v4 pairs dump. Load must either reject them with
// ErrBadDump or return a store that passes CheckInvariants and holds
// exactly the records the bytes encode.
func FuzzLoadPairs(f *testing.F) {
	good := somePairs(40)
	valid := pairsBytes(40, good)
	swapped := append([]dumpPair(nil), good...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	oversize := binary.LittleEndian.AppendUint64(pairsBytes(1, nil), 9)
	oversize = binary.LittleEndian.AppendUint32(oversize, MaxValueLen+1)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(pairsBytes(40, swapped))
	f.Add(pairsBytes(41, good))
	f.Add(oversize)
	f.Add(pairsBytes(0, nil))

	f.Fuzz(func(t *testing.T, pairs []byte) {
		st, err := Load(writePairsDump(t, pairs))
		if err != nil {
			if !errors.Is(err, ErrBadDump) || st != nil {
				t.Fatalf("Load: store=%v err=%v, want no store and ErrBadDump", st != nil, err)
			}
			return
		}
		// Decode the accepted bytes independently: count records, each
		// complete, keys ascending (Load vouched for all of that).
		w := st.NewWorker(0)
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		count, rest := binary.LittleEndian.Uint64(pairs), pairs[8:]
		for i := uint64(0); i < count; i++ {
			key, n := binary.LittleEndian.Uint64(rest), binary.LittleEndian.Uint32(rest[8:])
			want := rest[12 : 12+n]
			rest = rest[12+n:]
			if got, ok := w.Get(key); !ok || !bytes.Equal(got, want) {
				t.Fatalf("record %d: key %#x found=%v, %d bytes, want %d", i, key, ok, len(got), n)
			}
		}
		if live := w.Count(); uint64(live) != count {
			t.Fatalf("store holds %d keys, dump has %d records", live, count)
		}
	})
}

// TestLoadV4BothKinds round-trips mixed-size byte values through both
// v4 dump kinds — Save's physical pool images and SaveOnline's logical
// pairs — and requires byte-exact recovery from each.
func TestLoadV4BothKinds(t *testing.T) {
	st, err := Create(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	const n = 60
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w.Put(k, genVal(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	physDir, pairsDir := t.TempDir(), t.TempDir()
	if err := st.Save(physDir); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveOnline(pairsDir); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"phys": physDir, "pairs": pairsDir} {
		st2, err := Load(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w2 := st2.NewWorker(0)
		for k := uint64(1); k <= n; k++ {
			got, ok := w2.Get(k)
			if !ok || !bytes.Equal(got, genVal(k, 0)) {
				t.Fatalf("%s load: key %d wrong bytes (found=%v)", name, k, ok)
			}
		}
	}
}

// TestOldImageSortedNodesStillLoad: stores written with sorted-on-split
// nodes, which no revision writes any more, carry three marks — bit 0 of
// the list root's word 5, a sorted-prefix length in bits 8-23 of node
// meta words, and a 1 in the sidecar's fifth field. All three are read
// and ignored: through Reopen, a physical Load and a pairs Load every
// key and every Scan match a map oracle, before and after inserts that
// split the marked nodes, and the invariants hold.
func TestOldImageSortedNodesStillLoad(t *testing.T) {
	o := testOptions()
	o.Shards = 2
	old, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint64{}
	w := old.NewWorker(0)
	for _, i := range rand.New(rand.NewSource(4)).Perm(1000) {
		k := uint64(2*i + 1) // odd keys; the even ones split nodes later
		if _, _, err := w.PutU64(k, k*7); err != nil {
			t.Fatal(err)
		}
		oracle[k] = k * 7
	}
	// Word offsets of the on-pmem layout (internal/skiplist): the list
	// root's old flags word, a node's meta word and its next[0].
	const rootFlags, nodeMeta, nodeNext0 = 5, 4, 6
	walked := 0
	for _, e := range old.shards {
		pa := e.alloc.PoolByID(0)
		pa.Pool().Store(pa.RootOff()+rootFlags, 1, nil)
		for p := e.list.Head(); p != e.list.Tail(); {
			pool, off := e.space.Resolve(p)
			if walked%3 != 2 { // several nodes, not every one
				pool.Store(off+nodeMeta, pool.Load(off+nodeMeta, nil)|uint64(walked%0xffff+1)<<8, nil)
			}
			walked++
			p = riv.FromWord(pool.Load(off+nodeNext0, nil))
		}
	}
	if walked < 100 {
		t.Fatalf("walked %d nodes, want a list of many", walked)
	}
	// markSidecar sets the fifth field, which Save and SaveOnline write 0.
	markSidecar := func(t *testing.T, dir string) {
		path := filepath.Join(dir, "meta.upsl")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := strings.Fields(string(b))
		if len(f) < 5 || f[0] != "v4" || f[4] != "0" {
			t.Fatalf("sidecar %q: want a v4 line with 0 in its fifth field", b)
		}
		f[4] = "1"
		if err := os.WriteFile(path, []byte(strings.Join(f, " ")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, st *Store, oracle map[uint64]uint64) {
		t.Helper()
		w := st.NewWorker(0)
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, 0, len(oracle))
		for k, v := range oracle {
			if got, ok := w.GetU64(k); !ok || got != v {
				t.Fatalf("Get(%d) = %d, %v, want %d", k, got, ok, v)
			}
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, r := range [][2]uint64{{KeyMin, KeyMax}, {1, 1}, {100, 700}, {1333, 1999}, {1999, 5000}} {
			var got []uint64
			if err := w.ScanU64(r[0], r[1], func(k, v uint64) bool {
				if v != oracle[k] {
					t.Fatalf("Scan [%d, %d] yields (%d, %d), want value %d", r[0], r[1], k, v, oracle[k])
				}
				got = append(got, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			lo, _ := slices.BinarySearch(keys, r[0])
			hi, _ := slices.BinarySearch(keys, r[1]+1) // KeyMax+1 does not wrap
			if !slices.Equal(got, keys[lo:hi]) {
				t.Fatalf("Scan [%d, %d] yields %d keys, want %d", r[0], r[1], len(got), hi-lo)
			}
		}
	}
	physDir, pairsDir := t.TempDir(), t.TempDir()
	if err := old.Save(physDir); err != nil {
		t.Fatal(err)
	}
	if err := old.SaveOnline(pairsDir); err != nil {
		t.Fatal(err)
	}
	markSidecar(t, physDir)
	markSidecar(t, pairsDir)
	for _, tc := range []struct {
		name string
		open func() (*Store, error)
	}{
		{"reopen", old.Reopen},
		{"phys load", func() (*Store, error) { return Load(physDir) }},
		{"pairs load", func() (*Store, error) { return Load(pairsDir) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			want := maps.Clone(oracle)
			check(t, st, want)
			w := st.NewWorker(0)
			for k := uint64(2); k <= 2000; k += 2 {
				if _, _, err := w.PutU64(k, k*7); err != nil {
					t.Fatal(err)
				}
				want[k] = k * 7
			}
			check(t, st, want)
		})
	}
}
