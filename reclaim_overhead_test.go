package upskiplist

import (
	"math/rand"
	"testing"
	"time"

	"upskiplist/internal/pmem"
)

// TestReclaimPointOpOverhead bounds the hot-path cost of having online
// reclamation enabled when there is nothing to reclaim: a churn-free
// point-op workload (gets + value updates over a stable key set, the
// production default with hints on). Every list pins an era per op
// whether or not a reclaimer runs, so the one difference left on the hot
// path is the reclaim-on list's retired-kind check at every node hop.
// That is stated in counts: one seeded stream on both stores must
// publish the same stores, CASes, flushes and fences per op, and the
// reclaim-on store's loads and misses per op may exceed the other's by
// at most the nodes it visits per op (one kind word each). The reclaimer
// is held while the stream runs, so its sweep stays out of the reading;
// it stays idle anyway (nothing is ever fully tombstoned). The wall-clock
// ratio, with the reclaimer running, is only a backstop at 0.80, as in
// TestMetricsOverheadBound.
func TestReclaimPointOpOverhead(t *testing.T) {
	const (
		keys  = 20000
		ops   = 150000
		trial = 3
	)
	opts := func(reclaim bool) Options {
		o := DefaultOptions()
		o.MaxHeight = 12
		o.KeysPerNode = 8
		o.PoolWords = 1 << 21
		o.ChunkWords = 1 << 13
		o.MaxChunks = o.PoolWords/o.ChunkWords + 16
		o.Cost = perfCost()
		o.OnlineReclaim = reclaim
		return o
	}
	setup := func(reclaim bool) (*Store, *Worker) {
		st, err := Create(opts(reclaim))
		if err != nil {
			t.Fatal(err)
		}
		w := st.NewWorker(1)
		for k := uint64(1); k <= keys; k++ {
			if _, _, err := w.PutU64(k, k); err != nil {
				t.Fatal(err)
			}
		}
		return st, w
	}
	stream := func(w *Worker, rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			k := uint64(rng.Int63n(keys)) + 1
			if i%4 == 3 {
				if _, _, err := w.PutU64(k, k+1); err != nil { // value update: no new node
					t.Fatal(err)
				}
			} else if _, ok := w.GetU64(k); !ok {
				t.Fatalf("key %d missing", k)
			}
		}
	}

	counts := func(reclaim bool) (pmem.StatsSnapshot, uint64) {
		st, w := setup(reclaim)
		defer st.DisableOnlineReclaim()
		st.PauseReclaim()
		defer st.ResumeReclaim()
		base, nodes := st.Stats().Mem, w.Stats().NodesVisited
		stream(w, rand.New(rand.NewSource(7)), ops)
		if got := st.ReclaimStats().Retired; got != 0 {
			t.Fatalf("churn-free workload retired %d nodes", got)
		}
		return memDelta(st, base), w.Stats().NodesVisited - nodes
	}
	plain, plainNodes := counts(false)
	rec, recNodes := counts(true)
	per := func(v uint64) float64 { return float64(v) / ops }
	t.Logf("per op, plain vs reclaim-on: loads %.4f / %.4f (+%.4f), misses %.4f / %.4f (+%.4f), nodes %.4f / %.4f",
		per(plain.Loads), per(rec.Loads), per(rec.Loads)-per(plain.Loads),
		per(plain.Misses), per(rec.Misses), per(rec.Misses)-per(plain.Misses),
		per(plainNodes), per(recNodes))
	if rec.Stores != plain.Stores || rec.CASes != plain.CASes || rec.Flushes != plain.Flushes || rec.Fences != plain.Fences {
		t.Errorf("reclaim-on changed what the stream writes:\n plain %+v\n   rec %+v", plain, rec)
	}
	if rec.Loads > plain.Loads+recNodes {
		t.Errorf("reclaim-on loads %d vs %d: more than one extra per node visited (%d)", rec.Loads, plain.Loads, recNodes)
	}
	if rec.Misses > plain.Misses+recNodes {
		t.Errorf("reclaim-on misses %d vs %d: more than one extra per node visited (%d)", rec.Misses, plain.Misses, recNodes)
	}

	// Backstop. Warmup pass, then best-of-N measured passes (best-of
	// filters scheduler noise — both sides get the same treatment).
	if testing.Short() || raceEnabled {
		return
	}
	rate := func(reclaim bool) float64 {
		st, w := setup(reclaim)
		defer st.DisableOnlineReclaim()
		rng := rand.New(rand.NewSource(7))
		best := 0.0
		for tr := 0; tr <= trial; tr++ {
			start := time.Now()
			stream(w, rng, ops)
			if r := float64(ops) / time.Since(start).Seconds(); tr > 0 && r > best {
				best = r
			}
		}
		return best
	}
	base, on := rate(false), rate(true)
	t.Logf("point ops: base=%.0f ops/s, reclaim-on=%.0f ops/s (ratio %.3f)", base, on, on/base)
	if on < 0.80*base {
		t.Errorf("reclaim-on point ops %.0f ops/s below 0.80 of baseline %.0f ops/s (backstop)", on, base)
	}
}
