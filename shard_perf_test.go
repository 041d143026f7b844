package upskiplist

import (
	"sort"
	"sync"
	"testing"
	"time"

	"upskiplist/internal/pmem"
	"upskiplist/internal/ycsb"
)

// perfCost is the access-cost model for the scaling test: the default
// model with the miss-path penalties (an uncached PMEM load, plus the
// cross-socket surcharge) scaled up to the DRAM-cache-hit vs
// PMEM-random-read gap of real hardware (~100x, vs the default model's
// deliberately mild 24x). With the mild default the spin loops are
// comparable to the Go-level instruction work per hop and the locality
// difference under test is diluted; the realistic gap makes
// hit-vs-miss the first-order term, which is the regime the paper's
// Optane machine is in. Penalties that are identical in both
// configurations (hits, stores, flushes, fences) keep their defaults so
// they do not compress the ratio being measured.
func perfCost() *pmem.CostModel {
	c := pmem.DefaultCostModel()
	const scale = 100
	c.LoadPenalty *= scale
	c.RemotePenalty *= scale
	return c
}

func perfOptions(shards int) Options {
	o := DefaultOptions()
	o.MaxHeight = 14
	o.KeysPerNode = 32
	o.NUMANodes = 4
	o.Placement = PerNode
	o.Shards = shards
	o.Cost = perfCost()
	// ~48k preloaded keys at ~16 keys/node, 84-word blocks, tripled for
	// slack, split across the shard pools (or the 4 per-node pools when
	// unsharded).
	total := uint64(48000/16) * 84 * 3
	div := uint64(shards)
	if shards == 1 {
		div = 4 // unsharded PerNode: one pool per NUMA node
	}
	o.PoolWords = total/div + (1 << 21)
	o.ChunkWords = 1 << 14
	o.MaxChunks = o.PoolWords/o.ChunkWords + 16
	return o
}

// runYCSBA preloads n keys and replays opsPerWorker YCSB-A operations on
// each of 8 workers, returning aggregate ops/sec.
func runYCSBA(t *testing.T, st *Store, n uint64, opsPerWorker int) float64 {
	t.Helper()
	const workers = 8
	w0 := st.NewWorker(0)
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w0.PutU64(k, k*7+1); err != nil {
			t.Fatal(err)
		}
	}
	run := ycsb.NewRun(ycsb.WorkloadA, n)
	streams := make([][]ycsb.Op, workers)
	for i := range streams {
		streams[i] = run.NewStream(int64(i)+1).Fill(nil, opsPerWorker)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := st.NewWorker(i)
			for _, op := range streams[i] {
				if op.Type == ycsb.Read {
					w.GetU64(op.Key)
				} else {
					w.PutU64(op.Key, op.Value|1)
				}
			}
		}(i)
	}
	wg.Wait()
	total := float64(workers * opsPerWorker)
	return total / time.Since(start).Seconds()
}

// TestShardScalingYCSBA is the headline acceptance check for keyspace
// sharding: on the simulated cost model, a 4-shard per-node store must
// beat the unsharded per-node store by >= 1.5x on YCSB-A. The win is
// locality, not parallelism (the host may well be a single CPU): each
// worker's per-shard line cache covers 1/4 of the working set, so a hot
// set that thrashes the unsharded cache becomes largely cache-resident
// per shard, and each shard's traversals are log(N/4) deep over denser
// towers.
//
// The verdict is in what the cost model charged one worker replaying one
// seeded stream after another worker preloaded: model units per op must
// drop by 1.5x, nodes visited per op must drop, and fences per op must
// not move (sharding changes where a write lands, not what it persists).
// Those are pure functions of the stream. The 8-worker wall-clock ratio
// is kept only as a backstop.
func TestShardScalingYCSBA(t *testing.T) {
	if testing.Short() {
		t.Skip("perf measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("perf measurement; race-detector instrumentation swamps the simulated access costs")
	}
	const preload = 40000
	const ops = 20000

	type reading struct{ units, nodes, fences float64 }
	stream := ycsb.NewRun(ycsb.WorkloadA, preload).NewStream(1).Fill(nil, ops)
	count := func(shards int) reading {
		o := perfOptions(shards)
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		w0 := st.NewWorker(0)
		for k := uint64(1); k <= preload; k++ {
			if _, _, err := w0.PutU64(k, k*7+1); err != nil {
				t.Fatal(err)
			}
		}
		w := st.NewWorker(1)
		units, mem := poolUnits(o.Cost, st.Pools()), st.Stats().Mem
		for _, op := range stream {
			if op.Type == ycsb.Read {
				w.GetU64(op.Key)
			} else if _, _, err := w.PutU64(op.Key, op.Value|1); err != nil {
				t.Fatal(err)
			}
		}
		return reading{
			units:  float64(poolUnits(o.Cost, st.Pools())-units) / ops,
			nodes:  float64(w.Stats().NodesVisited) / ops,
			fences: float64(memDelta(st, mem).Fences) / ops,
		}
	}
	one, four := count(1), count(4)
	t.Logf("YCSB-A, 1 worker: 1 shard %.2f units/op, %.3f nodes/op, %.4f fences/op; 4 shards %.2f units/op, %.3f nodes/op, %.4f fences/op (%.2fx)",
		one.units, one.nodes, one.fences, four.units, four.nodes, four.fences, one.units/four.units)
	if one.units < 1.5*four.units {
		t.Errorf("4 shards are charged %.2f units/op, 1 shard %.2f: %.2fx, want >= 1.5x", four.units, one.units, one.units/four.units)
	}
	if four.nodes >= one.nodes {
		t.Errorf("4 shards visit %.3f nodes/op, 1 shard %.3f", four.nodes, one.nodes)
	}
	if four.fences != one.fences {
		t.Errorf("4 shards fence %.4f times per op, 1 shard %.4f", four.fences, one.fences)
	}

	measure := func(shards int) float64 {
		st, err := Create(perfOptions(shards))
		if err != nil {
			t.Fatal(err)
		}
		return runYCSBA(t, st, preload, ops)
	}
	// Back-to-back pairs share whatever state the host machine is in, so
	// per-pair ratios cancel common-mode noise (GC, other tenants); the
	// median of three pairs then discards a single disturbed pair. The
	// first, unrecorded pair warms the process (page faults, heap
	// growth).
	measure(1)
	measure(4)
	var ratios []float64
	for i := 0; i < 3; i++ {
		base := measure(1)
		sharded := measure(4)
		ratios = append(ratios, sharded/base)
		t.Logf("pair %d: 1-shard %.0f ops/s, 4-shard %.0f ops/s, ratio %.2fx", i, base, sharded, sharded/base)
	}
	sort.Float64s(ratios)
	ratio := ratios[1]
	t.Logf("YCSB-A @8 workers: median ratio %.2fx (backstop)", ratio)
	if ratio < 1.5 {
		t.Fatalf("4-shard per-node store is only %.2fx the unsharded store on YCSB-A (want >= 1.5x)", ratio)
	}
}
