package upskiplist

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"upskiplist/internal/pmem"
)

// TestReclaimPointOpOverhead pins the hot-path cost of having online
// reclamation enabled when there is nothing to reclaim: a churn-free
// point-op workload (gets + value updates over a stable key set, the
// production default with hints on). Every list pins an era per op
// whether or not reclamation is on, and traversals recognise a retired
// node from the split count they read anyway, so nothing is left on the
// hot path: one seeded stream on both stores must publish the same
// loads, misses, stores, CASes, flushes and fences per op.
func TestReclaimPointOpOverhead(t *testing.T) {
	const (
		keys = 20000
		ops  = 150000
	)
	counts := func(reclaim bool) (pmem.StatsSnapshot, uint64) {
		o := DefaultOptions()
		o.MaxHeight = 12
		o.KeysPerNode = 8
		o.PoolWords = 1 << 21
		o.ChunkWords = 1 << 13
		o.MaxChunks = o.PoolWords/o.ChunkWords + 16
		o.Cost = pmem.DefaultCostModel()
		o.OnlineReclaim = reclaim
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		w := st.NewWorker(1)
		for k := uint64(1); k <= keys; k++ {
			if _, _, err := w.PutU64(k, k); err != nil {
				t.Fatal(err)
			}
		}
		base, nodes := st.Stats().Mem, w.Stats().NodesVisited
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < ops; i++ {
			k := uint64(rng.Int63n(keys)) + 1
			if i%4 == 3 {
				if _, _, err := w.PutU64(k, k+1); err != nil { // value update: no new node
					t.Fatal(err)
				}
			} else if _, ok := w.GetU64(k); !ok {
				t.Fatalf("key %d missing", k)
			}
		}
		if got := st.ReclaimStats().Retired; got != 0 {
			t.Fatalf("churn-free workload retired %d nodes", got)
		}
		return memDelta(st, base), w.Stats().NodesVisited - nodes
	}
	plain, plainNodes := counts(false)
	rec, recNodes := counts(true)
	per := func(v uint64) float64 { return float64(v) / ops }
	t.Logf("per op, plain vs reclaim-on: loads %.4f / %.4f, misses %.4f / %.4f, nodes %.4f / %.4f",
		per(plain.Loads), per(rec.Loads), per(plain.Misses), per(rec.Misses), per(plainNodes), per(recNodes))
	if rec.Loads != plain.Loads || rec.Misses != plain.Misses || rec.Stores != plain.Stores ||
		rec.CASes != plain.CASes || rec.Flushes != plain.Flushes || rec.Fences != plain.Fences {
		t.Errorf("reclaim-on changed what the stream costs:\n plain %+v\n   rec %+v", plain, rec)
	}
	if recNodes != plainNodes {
		t.Errorf("reclaim-on visits %d nodes, plain %d", recNodes, plainNodes)
	}
}

// TestOnlineReclaimStartsNoGoroutine: retirement runs inline in the
// workers, so a store created with OnlineReclaim and driven through a
// churn stream that retires and frees nodes leaves the goroutine count
// where it found it.
func TestOnlineReclaimStartsNoGoroutine(t *testing.T) {
	before := quietGoroutines()
	o := churnOptions(true)
	o.Cost = nil
	o.Shards = 2
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(1)
	rng := rand.New(rand.NewSource(3))
	cs := &churnState{hi: 1}
	for k := 0; k < churnWindow; k++ {
		if _, _, err := w.PutU64(cs.hi, cs.hi); err != nil {
			t.Fatal(err)
		}
		cs.alive = append(cs.alive, cs.hi)
		cs.hi++
	}
	churnPhase(t, w, rng, cs)
	if rs := st.ReclaimStats(); rs.Retired == 0 || rs.Freed == 0 {
		t.Fatalf("the churn stream retired %d and freed %d nodes", rs.Retired, rs.Freed)
	}
	if after := quietGoroutines(); after != before {
		t.Fatalf("%d goroutines before Create, %d after a churn stream with online reclaim", before, after)
	}
}

// quietGoroutines waits, for up to 2 s, until the goroutine count holds
// still for 50 ms, and returns it: goroutines an earlier test left may
// still be exiting.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
		time.Sleep(50 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
