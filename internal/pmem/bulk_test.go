package pmem

import (
	"bytes"
	"testing"
)

// refStoreBytes and refLoadBytes are the per-word routines the bulk
// accessors replaced: one Store or Load call per word, bytes shifted in
// and out one at a time. They stay here as the reference the bulk
// routines are checked against.
func refStoreBytes(p *Pool, off uint64, val []byte, acc *Acc) {
	for i := 0; i < len(val); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(val); j++ {
			w |= uint64(val[i+j]) << (8 * j)
		}
		p.Store(off+uint64(i/8), w, acc)
	}
}

func refLoadBytes(p *Pool, off uint64, n int, dst []byte, acc *Acc) []byte {
	for i := 0; i < n; i += 8 {
		w := p.Load(off+uint64(i/8), acc)
		for j := 0; j < 8 && i+j < n; j++ {
			dst = append(dst, byte(w>>(8*j)))
		}
	}
	return dst
}

// units is the cost model's ledger: what the counters say was charged.
func units(c *CostModel, s StatsSnapshot) uint64 {
	return (s.Loads-s.Misses)*uint64(c.HitPenalty) +
		s.Misses*uint64(c.LoadPenalty) +
		s.RemoteOps*uint64(c.RemotePenalty) +
		(s.Stores+s.CASes)*uint64(c.StorePenalty) +
		s.Flushes*uint64(c.FlushPenalty) +
		s.Fences*uint64(c.FencePenalty)
}

// FuzzStoreLoadBytes drives the bulk routines and the per-word reference
// over twin pools — remote to their accessor, so the line cache decides
// every surcharge — and requires the same words, the same Loads, Stores,
// Misses and RemoteOps, hence the same charged units, at every stage: a
// store, a crash before it was persisted, the store again persisted and
// crashed, and a load.
func FuzzStoreLoadBytes(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1}, uint16(7))
	f.Add(bytes.Repeat([]byte{0xA5, 0x5A, 3}, 21), uint16(8))
	f.Add(bytes.Repeat([]byte{9, 8, 7, 6, 5, 4, 3, 2}, 128), uint16(13))
	f.Add(bytes.Repeat([]byte{0xFF}, 4099), uint16(509))
	f.Fuzz(func(t *testing.T, data []byte, at uint16) {
		if len(data) > 1<<13 {
			data = data[:1<<13]
		}
		off := uint64(at % 1024)
		words := uint64(len(data)+7) / 8
		cost := &CostModel{HitPenalty: 1, LoadPenalty: 5, StorePenalty: 2, FlushPenalty: 3, FencePenalty: 1, RemotePenalty: 7}
		type side struct {
			p   *Pool
			acc *Acc
		}
		var bulk, ref side
		for _, s := range []*side{&bulk, &ref} {
			p, err := NewPool(Config{Words: 4096, HomeNode: 1, Cost: cost})
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.words {
				p.words[i] = 0x1111111111111111 * uint64(i%15+1)
			}
			p.EnableTracking()
			s.p, s.acc = p, NewAcc(0)
		}
		before := append([]uint64(nil), bulk.p.words...)
		same := func(stage string) {
			t.Helper()
			for i := range bulk.p.words {
				if bulk.p.words[i] != ref.p.words[i] {
					t.Fatalf("%s: word %d is %#x, per-word reference wrote %#x", stage, i, bulk.p.words[i], ref.p.words[i])
				}
			}
			bulk.acc.Publish()
			ref.acc.Publish()
			b, r := bulk.p.Stats().Snapshot(), ref.p.Stats().Snapshot()
			if b.Loads != r.Loads || b.Stores != r.Stores || b.Misses != r.Misses || b.RemoteOps != r.RemoteOps {
				t.Fatalf("%s: counters %v (misses %d), per-word reference %v (misses %d)", stage, b, b.Misses, r, r.Misses)
			}
			if units(cost, b) != units(cost, r) {
				t.Fatalf("%s: charged %d units, per-word reference %d", stage, units(cost, b), units(cost, r))
			}
		}

		bulk.p.StoreBytes(off, data, bulk.acc)
		refStoreBytes(ref.p, off, data, ref.acc)
		same("store")
		if got := bulk.p.Stats().Snapshot().Stores; got != words {
			t.Fatalf("a %d-byte store counted %d stores, want one per word (%d)", len(data), got, words)
		}
		if d := bulk.p.DirtyLines(); words > 0 && d != int((off+words-1)>>lineShift-off>>lineShift+1) {
			t.Fatalf("%d dirty lines after storing words [%d,%d)", d, off, off+words)
		}

		bulk.p.Crash()
		ref.p.Crash()
		same("crash before persist")
		for i, w := range before {
			if bulk.p.words[i] != w {
				t.Fatalf("word %d survived a crash that came before its persist", i)
			}
		}

		bulk.p.StoreBytes(off, data, bulk.acc)
		refStoreBytes(ref.p, off, data, ref.acc)
		bulk.p.Persist(off, words, bulk.acc)
		ref.p.Persist(off, words, ref.acc)
		bulk.p.Crash()
		ref.p.Crash()
		same("crash after persist")

		// Cold line caches, so the loads exercise misses and the next-line
		// prefetch as well as hits.
		bulk.acc, ref.acc = NewAcc(0), NewAcc(0)
		prefix := []byte("prefix")
		got := bulk.p.LoadBytes(off, len(data), append([]byte(nil), prefix...), bulk.acc)
		want := refLoadBytes(ref.p, off, len(data), append([]byte(nil), prefix...), ref.acc)
		if !bytes.Equal(got, want) || !bytes.Equal(got[len(prefix):], data) {
			t.Fatalf("loaded %d bytes that differ from the %d stored", len(got)-len(prefix), len(data))
		}
		same("load")
	})
}

// TestStoreBytesCrashLandsBetweenLines: the injector is stepped once per
// covered cache line, so a countdown can stop a bulk store after any
// whole number of lines — and never inside one.
func TestStoreBytesCrashLandsBetweenLines(t *testing.T) {
	data := bytes.Repeat([]byte{0xEE}, 40*8) // words [5,45): lines 0..5
	for step := int64(1); step <= 6; step++ {
		p, err := NewPool(Config{Words: 64})
		if err != nil {
			t.Fatal(err)
		}
		p.SetInjector(NewCountdownInjector(step))
		func() {
			defer func() {
				if _, ok := recover().(CrashSignal); !ok {
					t.Fatalf("step %d: store of 6 lines was not interrupted", step)
				}
			}()
			p.StoreBytes(5, data, nil)
		}()
		written := 0
		for _, w := range p.words {
			if w != 0 {
				written++
			}
		}
		// Lines before the step'th are written in full: 3 words of line 0,
		// then 8 per line.
		want := 0
		if step > 1 {
			want = 3 + 8*int(step-2)
		}
		if written != want {
			t.Fatalf("crash at line step %d left %d words written, want %d", step, written, want)
		}
	}
}
