// Command upsl-bench regenerates every table and figure of the paper's
// evaluation (Chapter 5) against the simulated-PMEM substrate.
//
// Usage:
//
//	upsl-bench -exp all
//	upsl-bench -exp fig5.1 -preload 20000 -ops 20000 -threads 1,2,4,8,16
//	upsl-bench -exp table5.4 -desc-large 50000 -desc-small 10000
//
// Experiments (see DESIGN.md's experiment index):
//
//	table5.1  YCSB workload property self-check
//	fig5.1    throughput, workloads A and B, thread sweep, all 3 indexes
//	fig5.2    throughput, workloads C and D
//	fig5.3    read-only throughput, RIV pointers (K=1) vs fat pointers
//	fig5.4    UPSkipList striped vs NUMA-aware multi-pool (+ Table 5.2)
//	fig5.5    latency percentiles, UPSkipList vs BzTree
//	fig5.6    latency percentiles, UPSkipList vs PMDK skip list
//	table5.4  recovery time for all structures
//	extE      workload E scan throughput vs keys per node
//	shards    keyspace-sharding sweep + group-commit batches (BENCH_shards.json)
//	server    network service layer: pipelined TCP clients, depth sweep
//	          (BENCH_server.json; excluded from "all" — drives loopback TCP;
//	          -server-addr drives an external upsl-server instead)
//	churn-wire  put+del dead segment through a running upsl-server
//	          (-server-addr required) so a -online-reclaim server frees
//	          blocks mid-service; used by CI's loopback smoke
//	snap      MVCC snapshots: YCSB-A writer throughput with 0/1/4 open
//	          snapshots plus frozen-scan latency, every scan
//	          equivalence-checked against the pre-snapshot dump
//	          (BENCH_snap.json; excluded from "all")
//	payload   slab value arena: insert payload sweep {8B,64B,256B,1KB}
//	          on YCSB-A/C, ops/s + value bytes/s + fences/op
//	          (BENCH_payload.json; excluded from "all")
//	recovery  parallel recovery: store size x value size x parallelism
//	          sweep over physical-image reopen (shard fan-out +
//	          page-parallel sweeps) and sorted-dump loaders (bulk
//	          bottom-up build vs per-key replay), time-to-ready +
//	          keys/s (BENCH_recovery.json; excluded from "all")
//
// Absolute numbers will differ from the paper (its substrate was a
// 4-socket Optane machine; ours is a simulator) — the comparisons,
// crossovers and scaling shapes are what reproduce.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"upskiplist"
	"upskiplist/internal/bztree"
	"upskiplist/internal/harness"
	"upskiplist/internal/hist"
	"upskiplist/internal/pmem"
	"upskiplist/internal/ycsb"
)

type benchConfig struct {
	preload    uint64
	ops        int // per thread
	threads    []int
	latThreads int
	numaNodes  int
	keysNode   int
	maxHeight  int
	descLarge  int
	descSmall  int
	trials     int
	shards     []int
	benchJSON  string
	serverAddr string
	valueSize  int // bytes per insert value on UPSkipList runs; 0 = 8-byte words
	cost       *pmem.CostModel
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table5.1, fig5.1, fig5.2, fig5.3, fig5.4, fig5.5, fig5.6, table5.4, extE, shards, server, churn-wire, snap, payload, recovery, all")
		preload    = flag.Uint64("preload", 20000, "preloaded key count (paper: 100M)")
		ops        = flag.Int("ops", 10000, "operations per thread")
		threadsCSV = flag.String("threads", "1,2,4,8,16", "thread counts for sweeps")
		latThreads = flag.Int("lat-threads", 8, "threads for latency runs (paper: 80)")
		numaNodes  = flag.Int("numa", 4, "simulated NUMA nodes")
		keysNode   = flag.Int("keys-per-node", 64, "UPSkipList keys per node (paper: 256)")
		maxHeight  = flag.Int("max-height", 20, "UPSkipList levels (paper: 32)")
		descLarge  = flag.Int("desc-large", 50000, "BzTree descriptor pool, large (paper: 500K)")
		descSmall  = flag.Int("desc-small", 10000, "BzTree descriptor pool, small (paper: 100K)")
		trials     = flag.Int("trials", 3, "recovery trials (paper: 3)")
		shardsCSV  = flag.String("shards", "1,2,4,8", "shard counts for the sharding sweep")
		benchJSON  = flag.String("bench-json", "", "machine-readable output path (default BENCH_shards.json / BENCH_server.json by experiment)")
		serverAddr = flag.String("server-addr", "", "server experiment: drive an already running upsl-server at this address instead of an in-process one")
		valueSize  = flag.Int("value-size", 0, "insert value size in bytes for UPSkipList runs (0 = 8-byte words; payload sweeps its own sizes)")
		noCost     = flag.Bool("no-cost", false, "disable the PMEM access-cost model")
	)
	flag.Parse()
	if *benchJSON == "" {
		switch *exp {
		case "server":
			*benchJSON = "BENCH_server.json"
		case "snap":
			*benchJSON = "BENCH_snap.json"
		case "payload":
			*benchJSON = "BENCH_payload.json"
		case "recovery":
			*benchJSON = "BENCH_recovery.json"
		default:
			*benchJSON = "BENCH_shards.json"
		}
	}

	cfg := benchConfig{
		preload:    *preload,
		ops:        *ops,
		latThreads: *latThreads,
		numaNodes:  *numaNodes,
		keysNode:   *keysNode,
		maxHeight:  *maxHeight,
		descLarge:  *descLarge,
		descSmall:  *descSmall,
		trials:     *trials,
		benchJSON:  *benchJSON,
		serverAddr: *serverAddr,
		valueSize:  *valueSize,
	}
	if !*noCost {
		cfg.cost = pmem.DefaultCostModel()
	}
	for _, s := range strings.Split(*threadsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatalf("bad -threads element %q", s)
		}
		cfg.threads = append(cfg.threads, n)
	}
	for _, s := range strings.Split(*shardsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatalf("bad -shards element %q", s)
		}
		cfg.shards = append(cfg.shards, n)
	}

	experiments := map[string]func(benchConfig){
		"table5.1":   runTable51,
		"fig5.1":     runFig51,
		"fig5.2":     runFig52,
		"fig5.3":     runFig53,
		"fig5.4":     runFig54,
		"fig5.5":     runFig55,
		"fig5.6":     runFig56,
		"table5.4":   runTable54,
		"extE":       runExtE,
		"shards":     runShards,
		"server":     runServerExp,
		"churn-wire": runChurnWireExp,
		"snap":       runSnapExp,
		"payload":    runPayload,
		"recovery":   runRecoveryExp,
	}
	// "server" is deliberately not in the "all" order: it opens loopback
	// TCP sockets, which the pure in-process reproduction runs avoid
	// ("churn-wire" additionally requires an external server).
	// "snap", "payload" and "recovery" are also separate: each
	// writes its own BENCH_*.json, which an "all" run sharing one
	// -bench-json path would clobber.
	order := []string{"table5.1", "fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5", "fig5.6", "table5.4", "extE", "shards"}
	if *exp == "all" {
		for _, name := range order {
			experiments[name](cfg)
		}
		return
	}
	f, ok := experiments[*exp]
	if !ok {
		fatalf("unknown experiment %q", *exp)
	}
	f(cfg)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "upsl-bench: "+format+"\n", args...)
	os.Exit(1)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// leBytes is the canonical fixed-width value encoding of the u64
// benchmarks: 8 little-endian bytes (what PutU64 stores).
func leBytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// leU64 decodes a leBytes value, zero-extending short reads.
func leU64(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var p [8]byte
	copy(p[:], b)
	return binary.LittleEndian.Uint64(p[:])
}

// ---------------------------------------------------------------------
// Index factories, sized from the benchmark configuration.

func (c benchConfig) upslOptions(keysPerNode int, placement upskiplist.Placement) upskiplist.Options {
	o := upskiplist.DefaultOptions()
	o.MaxHeight = c.maxHeight
	o.KeysPerNode = keysPerNode
	o.Placement = placement
	o.NUMANodes = c.numaNodes
	if placement == upskiplist.SinglePool {
		o.NUMANodes = 1
	}
	o.Cost = c.cost
	// Size pools: roughly 3 blocks per (keysPerNode/2) keys, plus slack
	// for inserts, split across the pools in per-node mode.
	blockWords := uint64(5+c.maxHeight+2*keysPerNode) + 8
	nodes := (c.preload+uint64(c.ops)*8)/uint64(maxInt(keysPerNode/2, 1)) + 1024
	words := nodes * blockWords * 3
	if placement == upskiplist.PerNode {
		words = words/uint64(c.numaNodes) + (1 << 20)
	}
	o.PoolWords = words + (1 << 21)
	if c.valueSize > 8 {
		// Byte values live in slab pages carved from the same pools:
		// reserve (value words + chunk header slack) per key, doubled for
		// the retire-then-reuse churn of overwrites.
		o.PoolWords += uint64(c.valueSize/8+2) * (c.preload + uint64(c.ops)*8) * 2
	}
	o.ChunkWords = 1 << 16
	o.MaxChunks = o.PoolWords/o.ChunkWords + 16
	return o
}

func (c benchConfig) bztreeConfig(descriptors int) bztree.Config {
	leafCap := 64
	leaves := c.preload/uint64(leafCap/2) + 64
	// Leaf space + directory copy-on-write leakage (quadratic in leaves,
	// see bztree docs) + descriptor pool.
	leafWords := uint64(2 + 2*leafCap)
	words := leaves*leafWords*4 + leaves*leaves*3 + uint64(descriptors)*20 + (1 << 22)
	return bztree.Config{
		LeafCapacity: leafCap,
		Descriptors:  descriptors,
		NumThreads:   64,
		RegionWords:  words,
	}
}

func (c benchConfig) lazyWords(maxHeight int) uint64 {
	nodeWords := uint64(6 + 2*maxHeight)
	return (c.preload+uint64(c.ops)*8)*nodeWords*2 + (1 << 22)
}

func (c benchConfig) newUPSL(keysPerNode int, placement upskiplist.Placement, label string) *harness.UPSL {
	u, err := harness.NewUPSL(c.upslOptions(keysPerNode, placement), label)
	if err != nil {
		fatalf("creating UPSkipList: %v", err)
	}
	if c.valueSize > 0 {
		u.SetValueSize(c.valueSize)
	}
	return u
}

func (c benchConfig) newBzTree(descriptors int) *harness.BzTreeIndex {
	b, err := harness.NewBzTree(c.bztreeConfig(descriptors), c.cost)
	if err != nil {
		fatalf("creating BzTree: %v", err)
	}
	return b
}

func (c benchConfig) newLazy() *harness.LazyIndex {
	l, err := harness.NewLazy(c.lazyWords(c.maxHeight), c.maxHeight, 256, c.cost)
	if err != nil {
		fatalf("creating PMDK skip list: %v", err)
	}
	return l
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Table 5.1 — workload properties self-check.

func runTable51(c benchConfig) {
	header("Table 5.1 — YCSB workload properties (measured from the generator)")
	fmt.Printf("%-10s %-14s %22s %14s\n", "Workload", "Name", "Read/Update/Insert", "Distribution")
	const n = 200000
	for _, w := range ycsb.Workloads {
		run := ycsb.NewRun(w, 10000)
		st := run.NewStream(1)
		counts := map[ycsb.OpType]int{}
		for i := 0; i < n; i++ {
			counts[st.Next().Type]++
		}
		fmt.Printf("%-10s %-14s %7.1f/%.1f/%.1f %17s\n",
			w.Name, w.LongName,
			float64(counts[ycsb.Read])/n*100,
			float64(counts[ycsb.Update])/n*100,
			float64(counts[ycsb.Insert])/n*100,
			w.Dist)
	}
}

// ---------------------------------------------------------------------
// Figures 5.1 / 5.2 — throughput thread sweeps.

func runThroughputSweep(c benchConfig, workloads []ycsb.Workload, title string) {
	header(title)
	for _, w := range workloads {
		fmt.Printf("\nWorkload %s (%s)\n", w.Name, w.LongName)
		fmt.Printf("%-10s", "threads")
		names := []string{"UPSkipList", "BzTree", "PMDK skip list"}
		for _, n := range names {
			fmt.Printf(" %18s", n)
		}
		fmt.Println(" (Mops/s)")
		for _, th := range c.threads {
			// Fresh structures per point so Workload D inserts do not
			// accumulate across measurements.
			indexes := []harness.Index{
				c.newUPSL(c.keysNode, upskiplist.Striped, "UPSkipList"),
				c.newBzTree(c.descLarge),
				c.newLazy(),
			}
			fmt.Printf("%-10d", th)
			for _, idx := range indexes {
				if err := harness.Preload(idx, c.preload, 4); err != nil {
					fatalf("preload %s: %v", idx.Name(), err)
				}
				run := ycsb.NewRun(w, c.preload)
				res, err := harness.RunThroughput(idx, w, run, th, c.ops)
				if err != nil {
					fatalf("%s: %v", idx.Name(), err)
				}
				fmt.Printf(" %18.3f", res.OpsPerSec/1e6)
			}
			fmt.Println()
		}
	}
}

func runFig51(c benchConfig) {
	runThroughputSweep(c, []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB},
		"Figure 5.1 — throughput, workloads A (update-heavy) and B (read-mostly)")
}

func runFig52(c benchConfig) {
	runThroughputSweep(c, []ycsb.Workload{ycsb.WorkloadC, ycsb.WorkloadD},
		"Figure 5.2 — throughput, workloads C (read-only) and D (read-latest)")
}

// ---------------------------------------------------------------------
// Figure 5.3 — RIV pointers vs libpmemobj fat pointers, read-only, one
// key per node.

func runFig53(c benchConfig) {
	header("Figure 5.3 — read-only: RIV pointers (UPSkipList, K=1) vs fat pointers (PMDK skip list)")
	fmt.Printf("%-8s %14s %14s %12s %12s\n", "threads", "RIV Mops/s", "fat Mops/s", "RIV miss/op", "fat miss/op")
	for _, th := range c.threads {
		upsl := c.newUPSL(1, upskiplist.Striped, "UPSkipList-K1")
		lazy := c.newLazy()
		var rates, misses []float64
		statsOf := []func() uint64{
			func() uint64 { return upsl.PoolStats().Misses },
			func() uint64 { return lazy.PoolStats().Misses },
		}
		for i, idx := range []harness.Index{upsl, lazy} {
			if err := harness.Preload(idx, c.preload, 4); err != nil {
				fatalf("preload: %v", err)
			}
			// Warm the worker caches with a prefix of the workload so the
			// miss rate reflects steady state.
			warm := ycsb.NewRun(ycsb.WorkloadC, c.preload)
			if _, err := harness.RunThroughput(idx, ycsb.WorkloadC, warm, th, c.ops/4+1); err != nil {
				fatalf("%v", err)
			}
			before := statsOf[i]()
			run := ycsb.NewRun(ycsb.WorkloadC, c.preload)
			res, err := harness.RunThroughput(idx, ycsb.WorkloadC, run, th, c.ops)
			if err != nil {
				fatalf("%v", err)
			}
			rates = append(rates, res.OpsPerSec)
			misses = append(misses, float64(statsOf[i]()-before)/float64(res.Ops))
		}
		fmt.Printf("%-8d %14.3f %14.3f %12.2f %12.2f\n", th, rates[0]/1e6, rates[1]/1e6, misses[0], misses[1])
	}
	fmt.Println("(paper: fat pointers reach at most ~70% of RIV throughput; the")
	fmt.Println(" stable signature here is fat pointers' higher line-miss rate)")
}

// ---------------------------------------------------------------------
// Figure 5.4 / Table 5.2 — NUMA-aware multi-pool vs striped.

func runFig54(c benchConfig) {
	header("Figure 5.4 / Table 5.2 — UPSkipList striped device vs NUMA-aware multiple pools")
	th := c.latThreads
	fmt.Printf("(threads=%d, %d simulated NUMA nodes)\n", th, c.numaNodes)
	fmt.Printf("%-10s %18s %18s %12s\n", "Workload", "striped (Mops/s)", "per-node (Mops/s)", "reduction")
	var reductions []float64
	for _, w := range ycsb.Workloads {
		var rates []float64
		for _, placement := range []upskiplist.Placement{upskiplist.Striped, upskiplist.PerNode} {
			idx := c.newUPSL(c.keysNode, placement, "UPSkipList-"+placement.String())
			if err := harness.Preload(idx, c.preload, 4); err != nil {
				fatalf("preload: %v", err)
			}
			run := ycsb.NewRun(w, c.preload)
			res, err := harness.RunThroughput(idx, w, run, th, c.ops)
			if err != nil {
				fatalf("%v", err)
			}
			rates = append(rates, res.OpsPerSec)
		}
		red := (1 - rates[1]/rates[0]) * 100
		reductions = append(reductions, red)
		fmt.Printf("%-10s %18.3f %18.3f %11.1f%%\n", w.Name, rates[0]/1e6, rates[1]/1e6, red)
	}
	sum := 0.0
	for _, r := range reductions {
		sum += r
	}
	fmt.Printf("%-10s %37s %12.1f%%\n", "Average", "", sum/float64(len(reductions)))
	fmt.Println("(paper: average 5.6% reduction for NUMA awareness)")
}

// ---------------------------------------------------------------------
// Figures 5.5/5.6 + Table 5.3 — latency percentiles.

func runLatencyComparison(c benchConfig, other func() harness.Index, title string) {
	header(title)
	th := c.latThreads
	fmt.Printf("(threads=%d; latencies in microseconds)\n", th)
	for _, w := range ycsb.Workloads {
		fmt.Printf("\nWorkload %s (%s)\n", w.Name, w.LongName)
		fmt.Printf("%-22s %-8s %10s %10s %10s %10s %10s\n",
			"index", "op", "p50", "p90", "p99", "p99.9", "p99.99")
		indexes := []harness.Index{
			c.newUPSL(c.keysNode, upskiplist.Striped, "UPSkipList"),
			other(),
		}
		for _, idx := range indexes {
			if err := harness.Preload(idx, c.preload, 4); err != nil {
				fatalf("preload: %v", err)
			}
			run := ycsb.NewRun(w, c.preload)
			res, err := harness.RunLatency(idx, w, run, th, c.ops)
			if err != nil {
				fatalf("%v", err)
			}
			for _, op := range []ycsb.OpType{ycsb.Read, ycsb.Update, ycsb.Insert} {
				hg := res.ByOp[op]
				if hg.Count() == 0 {
					continue
				}
				fmt.Printf("%-22s %-8s", idx.Name(), op)
				for _, q := range hist.StandardPercentiles {
					fmt.Printf(" %10.1f", float64(hg.Quantile(q))/1e3)
				}
				fmt.Println()
			}
		}
	}
}

func runFig55(c benchConfig) {
	runLatencyComparison(c,
		func() harness.Index { return c.newBzTree(c.descLarge) },
		"Figure 5.5 / Table 5.3 — latency percentiles: UPSkipList vs BzTree")
}

func runFig56(c benchConfig) {
	runLatencyComparison(c,
		func() harness.Index { return c.newLazy() },
		"Figure 5.6 / Table 5.3 — latency percentiles: UPSkipList vs PMDK skip list")
}

// ---------------------------------------------------------------------
// Table 5.4 — recovery time.

func runTable54(c benchConfig) {
	header("Table 5.4 — recovery time (mean of trials, insert-heavy preload)")
	fmt.Printf("(preload=%d keys, %d trials; paper scales: UPSL 83.7ms, BzTree-500K 760ms, BzTree-100K 239ms, PMDK 55.5ms)\n",
		c.preload, c.trials)
	indexes := []harness.Index{
		c.newUPSL(c.keysNode, upskiplist.Striped, "UPSkipList"),
		c.newBzTree(c.descLarge),
		c.newBzTree(c.descSmall),
		c.newLazy(),
	}
	fmt.Printf("%-24s %16s\n", "structure", "recovery")
	for _, idx := range indexes {
		res, err := harness.RunRecovery(idx, c.preload, 8, c.trials)
		if err != nil {
			fatalf("%s: %v", idx.Name(), err)
		}
		fmt.Printf("%-24s %16s\n", res.Index, res.Mean)
	}
}

// ---------------------------------------------------------------------
// Extension — YCSB workload E (scan-heavy), exercising the range-query
// feature the paper lists as future work. Multi-key nodes should win:
// each node visited during a scan yields up to K pairs.

func runExtE(c benchConfig) {
	header("Extension — workload E (95% scans/5% inserts): scan throughput vs keys per node")
	th := 4
	fmt.Printf("(threads=%d, scan length uniform 1..%d)\n", th, ycsb.WorkloadE.MaxScanLen)
	fmt.Printf("%-22s %18s\n", "index", "Kops/s")
	runOne := func(label string, idx harness.Index) {
		if err := harness.Preload(idx, c.preload, 4); err != nil {
			fatalf("preload: %v", err)
		}
		run := ycsb.NewRun(ycsb.WorkloadE, c.preload)
		res, err := harness.RunThroughput(idx, ycsb.WorkloadE, run, th, c.ops/4+1)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%-22s %18.1f\n", label, res.OpsPerSec/1e3)
	}
	for _, k := range []int{1, 16, 64} {
		label := fmt.Sprintf("UPSkipList K=%d", k)
		runOne(label, c.newUPSL(k, upskiplist.SinglePool, label))
	}
	runOne("PMDK skip list", c.newLazy())
	runOne("BzTree", c.newBzTree(c.descLarge))
}

// ---------------------------------------------------------------------
// Extension — keyspace sharding sweep and group-commit batches.

// upslShardOptions sizes a sharded store: each shard's single pool holds
// roughly 1/shards of the data (plus slack), placed NUMA-locally by
// shard index.
func (c benchConfig) upslShardOptions(keysPerNode int, placement upskiplist.Placement, shards int) upskiplist.Options {
	o := c.upslOptions(keysPerNode, placement)
	o.Shards = shards
	if shards > 1 {
		blockWords := uint64(5+c.maxHeight+2*keysPerNode) + 8
		nodes := (c.preload+uint64(c.ops)*8)/uint64(maxInt(keysPerNode/2, 1)) + 1024
		words := nodes * blockWords * 3
		o.PoolWords = words/uint64(shards) + (1 << 21)
		o.MaxChunks = o.PoolWords/o.ChunkWords + 16
	}
	return o
}

func (c benchConfig) newShardedUPSL(shards int, label string) *harness.UPSL {
	placement := upskiplist.PerNode
	if c.numaNodes < 2 {
		placement = upskiplist.SinglePool
	}
	u, err := harness.NewUPSL(c.upslShardOptions(c.keysNode, placement, shards), label)
	if err != nil {
		fatalf("creating sharded UPSkipList: %v", err)
	}
	if c.valueSize > 0 {
		u.SetValueSize(c.valueSize)
	}
	return u
}

// runShards sweeps the shard count over YCSB A–E (plus a group-commit
// batch comparison on workload A) and writes every data point to
// -bench-json as well as stdout.
func runShards(c benchConfig) {
	header("Extension — keyspace sharding: shard sweep over YCSB A–E + group-commit batches")
	th := c.latThreads
	fmt.Printf("(threads=%d, %d simulated NUMA nodes, per-node shard placement; latencies per item)\n",
		th, c.numaNodes)
	var records []harness.BenchRecord

	measure := func(exp string, w ycsb.Workload, shards, batch int) harness.BenchRecord {
		label := fmt.Sprintf("UPSL-%dsh", shards)
		idx := c.newShardedUPSL(shards, label)
		if err := harness.Preload(idx, c.preload, 4); err != nil {
			fatalf("preload: %v", err)
		}
		run := ycsb.NewRun(w, c.preload)
		before := idx.PoolStats().Fences
		res, err := harness.RunMeasured(idx, run, th, c.ops, batch)
		if err != nil {
			fatalf("%s: %v", label, err)
		}
		rec := harness.BenchRecord{
			Experiment: exp, Index: label, Workload: w.Name,
			Threads: th, Shards: shards, Batch: batch,
			Ops: res.Ops, OpsPerSec: res.OpsPerSec,
			P50Micros:   float64(res.Lat.Quantile(0.50)) / 1e3,
			P99Micros:   float64(res.Lat.Quantile(0.99)) / 1e3,
			FencesPerOp: harness.FencesPerOp(before, idx.PoolStats().Fences, res.Ops),
		}
		fmt.Println(rec)
		records = append(records, rec)
		return rec
	}

	workloads := append(append([]ycsb.Workload{}, ycsb.Workloads...), ycsb.WorkloadE)
	for _, w := range workloads {
		for _, ns := range c.shards {
			measure("shard-sweep", w, ns, 1)
		}
	}

	fmt.Println()
	fmt.Println("Group commit (workload A): ApplyBatch(64) vs one fence per op")
	for _, ns := range []int{1, 4} {
		single := measure("group-commit", ycsb.WorkloadA, ns, 1)
		batched := measure("group-commit", ycsb.WorkloadA, ns, 64)
		fmt.Printf("  shards=%d: fences/op %.3f -> %.3f (%.1fx fewer), throughput %.2fx\n",
			ns, single.FencesPerOp, batched.FencesPerOp,
			single.FencesPerOp/batched.FencesPerOp,
			batched.OpsPerSec/single.OpsPerSec)
	}

	if c.benchJSON != "" {
		if err := harness.WriteBenchJSON(c.benchJSON, records); err != nil {
			fatalf("writing %s: %v", c.benchJSON, err)
		}
		fmt.Printf("\nwrote %d records to %s\n", len(records), c.benchJSON)
	}
}
