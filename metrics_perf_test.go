package upskiplist

import (
	"math"
	"runtime"
	"testing"

	"upskiplist/internal/metrics"
	"upskiplist/internal/pmem"
	"upskiplist/internal/ycsb"
)

// TestMetricsOverheadBound is the observability cost guard, on the
// default traversal. What recording costs is stated in counts that
// cannot drift with the host: every op issued lands in exactly one
// latency histogram and one shard counter, an instrumented Get or Put
// allocates nothing, and the registry leaves the simulated access
// sequence alone — the same stream publishes the same pmem counters
// with and without it. The wall-clock ratio (8 concurrent workers, cost
// model on, end to end) is only a backstop against a recording cost of
// a different order: two clock reads, one histogram record and one
// counter increment per op measure 3-8% here and the spread between
// runs is as wide, so the bar sits well below both.
func TestMetricsOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("perf measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("perf measurement; race-detector instrumentation swamps the simulated access costs")
	}
	const preload = 20000
	const ops = 10000

	create := func(instrumented bool) *Store {
		st, err := Create(perfOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		if instrumented {
			st.EnableMetrics(metrics.NewRegistry())
		}
		return st
	}

	// One worker, one seeded YCSB-A stream: the published counters of the
	// two stores must be equal, and the instrumented one's instruments
	// must account for every op.
	const soloKeys, soloOps = 4000, 8000
	stream := ycsb.NewRun(ycsb.WorkloadA, soloKeys).NewStream(1).Fill(nil, soloOps)
	solo := func(instrumented bool) (*Store, *Worker, pmem.StatsSnapshot) {
		st := create(instrumented)
		w := st.NewWorker(0)
		for k := uint64(1); k <= soloKeys; k++ {
			if _, _, err := w.PutU64(k, k*7+1); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range stream {
			if op.Type == ycsb.Read {
				w.GetU64(op.Key)
			} else if _, _, err := w.PutU64(op.Key, op.Value|1); err != nil {
				t.Fatal(err)
			}
		}
		return st, w, st.Stats().Mem
	}
	_, _, plain := solo(false)
	st, w, inst := solo(true)
	if plain != inst {
		t.Errorf("the registry changed the access sequence:\n   plain %+v misses=%d\n metered %+v misses=%d",
			plain, plain.Misses, inst, inst.Misses)
	}
	m := st.met.Load()
	var recorded, routed uint64
	for _, h := range m.opLat {
		recorded += h.Hist().Count()
	}
	for _, c := range m.shardOps {
		routed += c.Load()
	}
	if issued := uint64(soloKeys + soloOps); recorded != issued || routed != issued {
		t.Errorf("%d ops issued: %d latency samples, %d shard-counter increments", issued, recorded, routed)
	}
	if n := testing.AllocsPerRun(500, func() { w.GetU64(17) }); n != 0 {
		t.Errorf("instrumented Get allocates %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(500, func() { w.PutU64(17, 34) }); n != 0 {
		t.Errorf("instrumented Put allocates %.1f times per op", n)
	}

	// Backstop. Paired back-to-back runs cancel common-mode noise, and
	// alternating which variant runs first cancels first-vs-second drift
	// within a pair; the first, unrecorded pair warms the process. The
	// verdict compares the best run of each variant: scheduler
	// interference only ever subtracts throughput.
	measure := func(instrumented bool) float64 {
		st := create(instrumented)
		// Each run allocates fresh multi-MB pools; collecting the last
		// run's before timing keeps GC debt from charging whichever
		// variant happens to run later.
		runtime.GC()
		return runYCSBA(t, st, preload, ops)
	}
	measure(false)
	measure(true)
	var bestBase, bestInst float64
	for i := 0; i < 4; i++ {
		var base, inst float64
		if i%2 == 0 {
			base = measure(false)
			inst = measure(true)
		} else {
			inst = measure(true)
			base = measure(false)
		}
		bestBase = math.Max(bestBase, base)
		bestInst = math.Max(bestInst, inst)
		t.Logf("pair %d: plain %.0f ops/s, instrumented %.0f ops/s, ratio %.3f", i, base, inst, inst/base)
	}
	ratio := bestInst / bestBase
	t.Logf("metrics overhead: best instrumented/plain ratio %.3f", ratio)
	if ratio < 0.80 {
		t.Fatalf("metric recording costs %.1f%% of point-op throughput (backstop: 20%%)", (1-ratio)*100)
	}
}
