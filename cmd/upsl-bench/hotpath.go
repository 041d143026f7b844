package main

import (
	"fmt"
	"sync"
	"time"

	"upskiplist"
	"upskiplist/internal/harness"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/ycsb"
)

// Extension — cache-conscious traversal. The hotpath experiment sweeps
// node capacity and request distribution over read-only YCSB-C, pitting
// the default fast path (block-loaded in-node search, foresight
// prefetching, sparse towers) against the reference traversal (per-word
// search, no prefetch, classic p = 1/2 towers). Alongside throughput it
// records the two locality counters the optimization targets — nodes
// visited per op and key comparisons per op — plus charged prefetch
// issues, so BENCH_hotpath.json shows WHERE the speedup comes from, not
// just that it exists.

// hotpathVariant names one store configuration of the comparison.
type hotpathVariant struct {
	name string
	fast bool
}

func runHotPath(c benchConfig) {
	header("Extension — cache-conscious traversal: block search + foresight + sparse towers")
	const workers = 8
	fmt.Printf("(read-only YCSB-C, %d workers, %d preloaded keys, %d ops/worker)\n",
		workers, c.preload, c.ops)
	fmt.Printf("%-14s %-8s %-10s %12s %10s %10s %10s\n",
		"config", "dist", "keys/node", "ops/s", "nodes/op", "probes/op", "pf/op")

	var records []harness.BenchRecord
	dists := []struct {
		name string
		kind ycsb.DistKind
	}{
		{"zipfian", ycsb.Zipfian},
		{"uniform", ycsb.Uniform},
	}
	variants := []hotpathVariant{{"fastpath", true}, {"baseline", false}}

	for _, kpn := range []int{16, 64, 256} {
		for _, d := range dists {
			wl := ycsb.Workload{Name: "C", LongName: "Read-Only", ReadPct: 100, Dist: d.kind}
			for _, v := range variants {
				rec := c.measureHotPath(wl, d.name, kpn, v, workers)
				records = append(records, rec)
				fmt.Printf("%-14s %-8s %-10d %12.0f %10.2f %10.2f %10.2f\n",
					v.name, d.name, kpn, rec.OpsPerSec,
					rec.NodesVisitedPerOp, rec.KeysProbedPerOp, rec.PrefetchesPerOp)
			}
		}
	}

	if c.benchJSON != "" {
		if err := harness.WriteBenchJSON(c.benchJSON, records); err != nil {
			fatalf("writing %s: %v", c.benchJSON, err)
		}
		fmt.Printf("\nwrote %d records to %s\n", len(records), c.benchJSON)
	}
}

// measureHotPath preloads a fresh store, replays the read-only stream on
// 8 workers, and folds every worker's traversal-locality counters into
// the record. The harness Handle path is bypassed because the locality
// counters live on the workers (Worker.Stats), which handles do not
// expose.
func (c benchConfig) measureHotPath(wl ycsb.Workload, dist string, kpn int, v hotpathVariant, workers int) harness.BenchRecord {
	o := c.upslOptions(kpn, upskiplist.SinglePool)
	o.SortedNodes = true
	st, err := upskiplist.Create(o)
	if err != nil {
		fatalf("creating hotpath store: %v", err)
	}
	if !v.fast {
		st.SetTuning(skiplist.Tuning{Reference: true, TowerBranch: 2})
	}
	w0 := st.NewWorker(0)
	for k := uint64(1); k <= c.preload; k++ {
		if _, _, err := w0.PutU64(k, k*7+1); err != nil {
			fatalf("hotpath preload: %v", err)
		}
	}

	run := ycsb.NewRun(wl, c.preload)
	streams := make([][]ycsb.Op, workers)
	for i := range streams {
		streams[i] = run.NewStream(int64(i)+1).Fill(nil, c.ops)
	}
	ws := make([]*upskiplist.Worker, workers)
	for i := range ws {
		ws[i] = st.NewWorker(i)
	}
	pfBefore := st.Stats().Mem.Prefetches

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, op := range streams[i] {
				ws[i].Get(op.Key)
			}
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)

	var nodes, probes, ops uint64
	for _, w := range ws {
		s := w.Stats()
		nodes += s.NodesVisited
		probes += s.KeysProbed
		ops += s.Ops
	}
	prefetches := st.Stats().Mem.Prefetches - pfBefore
	perOp := func(n uint64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(n) / float64(ops)
	}
	return harness.BenchRecord{
		Experiment:        "hotpath",
		Index:             "UPSL-" + v.name,
		Workload:          wl.Name + "-" + dist,
		Threads:           workers,
		Shards:            1,
		Batch:             1,
		Ops:               int(ops),
		OpsPerSec:         float64(ops) / dur.Seconds(),
		NodesVisitedPerOp: perOp(nodes),
		KeysProbedPerOp:   perOp(probes),
		PrefetchesPerOp:   perOp(prefetches),
	}
}
