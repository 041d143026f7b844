// Benchmarks regenerating the paper's tables and figures as Go testing.B
// targets (one family per artifact; see DESIGN.md's experiment index and
// cmd/upsl-bench for the full sweeps with formatted output).
//
// Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=Fig51 -cpu 1,2,4
//
// Absolute ns/op values are simulator-scale; compare across structures
// and configurations, not against the paper's hardware numbers.
package upskiplist_test

import (
	"sync/atomic"
	"testing"

	"upskiplist"
	"upskiplist/internal/bztree"
	"upskiplist/internal/harness"
	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/ycsb"
)

const (
	benchPreload = 20000
	benchKeysPN  = 32
	benchHeight  = 20
)

func benchUPSLOptions(keysPerNode int, placement upskiplist.Placement, cost *pmem.CostModel) upskiplist.Options {
	o := upskiplist.DefaultOptions()
	o.MaxHeight = benchHeight
	o.KeysPerNode = keysPerNode
	o.Placement = placement
	if placement != upskiplist.SinglePool {
		o.NUMANodes = 4
	}
	o.PoolWords = 1 << 24
	o.ChunkWords = 1 << 15
	o.MaxChunks = 1 << 9
	o.Cost = cost
	return o
}

func newBenchUPSL(b *testing.B, keysPerNode int, placement upskiplist.Placement, cost *pmem.CostModel) *harness.UPSL {
	b.Helper()
	u, err := harness.NewUPSL(benchUPSLOptions(keysPerNode, placement, cost), "")
	if err != nil {
		b.Fatal(err)
	}
	if err := harness.Preload(u, benchPreload, 4); err != nil {
		b.Fatal(err)
	}
	return u
}

func newBenchBzTree(b *testing.B, descriptors int, cost *pmem.CostModel) *harness.BzTreeIndex {
	b.Helper()
	bz, err := harness.NewBzTree(bztree.Config{
		LeafCapacity: 64,
		Descriptors:  descriptors,
		NumThreads:   64,
		RegionWords:  1 << 25,
	}, cost)
	if err != nil {
		b.Fatal(err)
	}
	if err := harness.Preload(bz, benchPreload, 4); err != nil {
		b.Fatal(err)
	}
	return bz
}

func newBenchLazy(b *testing.B, cost *pmem.CostModel) *harness.LazyIndex {
	b.Helper()
	lz, err := harness.NewLazy(1<<25, benchHeight, 256, cost)
	if err != nil {
		b.Fatal(err)
	}
	if err := harness.Preload(lz, benchPreload, 4); err != nil {
		b.Fatal(err)
	}
	return lz
}

// runWorkload drives the index with a YCSB mix under RunParallel so that
// -cpu sweeps reproduce the papers' thread scaling.
func runWorkload(b *testing.B, idx harness.Index, w ycsb.Workload) {
	run := ycsb.NewRun(w, benchPreload)
	var nextID atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextID.Add(1) - 1)
		h := idx.NewHandle(id)
		st := run.NewStream(int64(id) + 1)
		for pb.Next() {
			op := st.Next()
			if op.Type == ycsb.Read {
				h.Read(op.Key)
			} else {
				if err := h.Insert(op.Key, op.Value&harness.ValueMask|1); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// --- Figure 5.1: throughput, update-heavy (A) and read-mostly (B). ---

func BenchmarkFig51_WorkloadA_UPSkipList(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

func BenchmarkFig51_WorkloadA_BzTree(b *testing.B) {
	runWorkload(b, newBenchBzTree(b, 50000, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

func BenchmarkFig51_WorkloadA_PMDKSkipList(b *testing.B) {
	runWorkload(b, newBenchLazy(b, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

func BenchmarkFig51_WorkloadB_UPSkipList(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadB)
}

func BenchmarkFig51_WorkloadB_BzTree(b *testing.B) {
	runWorkload(b, newBenchBzTree(b, 50000, pmem.DefaultCostModel()), ycsb.WorkloadB)
}

func BenchmarkFig51_WorkloadB_PMDKSkipList(b *testing.B) {
	runWorkload(b, newBenchLazy(b, pmem.DefaultCostModel()), ycsb.WorkloadB)
}

// --- Figure 5.2: throughput, read-only (C) and read-latest (D). ---

func BenchmarkFig52_WorkloadC_UPSkipList(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadC)
}

func BenchmarkFig52_WorkloadC_BzTree(b *testing.B) {
	runWorkload(b, newBenchBzTree(b, 50000, pmem.DefaultCostModel()), ycsb.WorkloadC)
}

func BenchmarkFig52_WorkloadC_PMDKSkipList(b *testing.B) {
	runWorkload(b, newBenchLazy(b, pmem.DefaultCostModel()), ycsb.WorkloadC)
}

func BenchmarkFig52_WorkloadD_UPSkipList(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadD)
}

func BenchmarkFig52_WorkloadD_BzTree(b *testing.B) {
	runWorkload(b, newBenchBzTree(b, 50000, pmem.DefaultCostModel()), ycsb.WorkloadD)
}

func BenchmarkFig52_WorkloadD_PMDKSkipList(b *testing.B) {
	runWorkload(b, newBenchLazy(b, pmem.DefaultCostModel()), ycsb.WorkloadD)
}

// --- Figure 5.3: RIV pointers (K=1) vs libpmemobj fat pointers,
// read-only. ---

func BenchmarkFig53_RIVPointers(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, 1, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadC)
}

func BenchmarkFig53_FatPointers(b *testing.B) {
	runWorkload(b, newBenchLazy(b, pmem.DefaultCostModel()), ycsb.WorkloadC)
}

// --- Figure 5.4 / Table 5.2: striped vs NUMA-aware multi-pool. ---

func BenchmarkFig54_Striped_WorkloadA(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.Striped, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

func BenchmarkFig54_PerNode_WorkloadA(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.PerNode, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

func BenchmarkFig54_Striped_WorkloadC(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.Striped, pmem.DefaultCostModel()), ycsb.WorkloadC)
}

func BenchmarkFig54_PerNode_WorkloadC(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.PerNode, pmem.DefaultCostModel()), ycsb.WorkloadC)
}

// --- Figures 5.5/5.6 share machinery with throughput; latency
// percentiles are produced by `upsl-bench -exp fig5.5` / `-exp fig5.6`.
// Here we measure the per-op mean, separated by operation kind. ---

func benchOpKind(b *testing.B, idx harness.Index, read bool) {
	h := idx.NewHandle(0)
	run := ycsb.NewRun(ycsb.WorkloadA, benchPreload)
	st := run.NewStream(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := st.Next()
		if read {
			h.Read(op.Key)
		} else if err := h.Insert(op.Key, op.Value&harness.ValueMask|1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig55_Read_UPSkipList(b *testing.B) {
	benchOpKind(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel()), true)
}

func BenchmarkFig55_Update_UPSkipList(b *testing.B) {
	benchOpKind(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel()), false)
}

func BenchmarkFig55_Read_BzTree(b *testing.B) {
	benchOpKind(b, newBenchBzTree(b, 50000, pmem.DefaultCostModel()), true)
}

func BenchmarkFig55_Update_BzTree(b *testing.B) {
	benchOpKind(b, newBenchBzTree(b, 50000, pmem.DefaultCostModel()), false)
}

func BenchmarkFig56_Read_PMDKSkipList(b *testing.B) {
	benchOpKind(b, newBenchLazy(b, pmem.DefaultCostModel()), true)
}

func BenchmarkFig56_Update_PMDKSkipList(b *testing.B) {
	benchOpKind(b, newBenchLazy(b, pmem.DefaultCostModel()), false)
}

// --- Hot path: single-worker steady-state allocs/op and ns/op, with the
// volatile hint cache on (default) and off. Op streams are pre-generated
// outside the timer; inserts hit preloaded keys (pure updates), so the
// measured path is traversal + value publish with zero heap traffic. ---

func benchHotPath(b *testing.B, mode string, disableHints bool) {
	o := benchUPSLOptions(benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel())
	u, err := harness.NewUPSL(o, "")
	if err != nil {
		b.Fatal(err)
	}
	u.Store().SetTuning(skiplist.Tuning{NoHints: disableHints})
	if err := harness.Preload(u, benchPreload, 4); err != nil {
		b.Fatal(err)
	}
	w := u.Store().NewWorker(0)
	ops := ycsb.NewRun(ycsb.WorkloadC, benchPreload).NewStream(1).Fill(nil, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&(len(ops)-1)]
		read := mode == "get" || (mode == "mixed" && i&1 == 0)
		if read {
			w.GetU64(op.Key)
		} else if _, _, err := w.PutU64(op.Key, op.Value&harness.ValueMask|1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPath_Get(b *testing.B)            { benchHotPath(b, "get", false) }
func BenchmarkHotPath_Get_NoHints(b *testing.B)    { benchHotPath(b, "get", true) }
func BenchmarkHotPath_Insert(b *testing.B)         { benchHotPath(b, "insert", false) }
func BenchmarkHotPath_Insert_NoHints(b *testing.B) { benchHotPath(b, "insert", true) }
func BenchmarkHotPath_Mixed(b *testing.B)          { benchHotPath(b, "mixed", false) }
func BenchmarkHotPath_Mixed_NoHints(b *testing.B)  { benchHotPath(b, "mixed", true) }

// Hint cache on vs off on the skewed (Zipfian) read-only workload — the
// acceptance comparison recorded in EXPERIMENTS.md.
func benchHintCacheYCSBC(b *testing.B, disableHints bool) {
	o := benchUPSLOptions(benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel())
	u, err := harness.NewUPSL(o, "")
	if err != nil {
		b.Fatal(err)
	}
	u.Store().SetTuning(skiplist.Tuning{NoHints: disableHints})
	if err := harness.Preload(u, benchPreload, 4); err != nil {
		b.Fatal(err)
	}
	runWorkload(b, u, ycsb.WorkloadC)
}

func BenchmarkHintCache_YCSBC_On(b *testing.B)  { benchHintCacheYCSBC(b, false) }
func BenchmarkHintCache_YCSBC_Off(b *testing.B) { benchHintCacheYCSBC(b, true) }

// --- Table 5.4: recovery time. Each iteration performs one full
// crash-recovery reattach. ---

func BenchmarkTable54_Recovery_UPSkipList(b *testing.B) {
	u := newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBzRecovery(b *testing.B, descriptors int) {
	bz := newBenchBzTree(b, descriptors, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bz.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// The paper's 500K/100K descriptor pools, scaled by 10x to match the
// scaled preload; the ratio between the two is the reproduced result.
func BenchmarkTable54_Recovery_BzTree50KDesc(b *testing.B) { benchBzRecovery(b, 50000) }
func BenchmarkTable54_Recovery_BzTree10KDesc(b *testing.B) { benchBzRecovery(b, 10000) }

func BenchmarkTable54_Recovery_PMDKSkipList(b *testing.B) {
	lz := newBenchLazy(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lz.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: expected O(log n) lookup scaling. ---

func benchScalingGet(b *testing.B, n uint64) {
	o := benchUPSLOptions(benchKeysPN, upskiplist.SinglePool, nil)
	u, err := harness.NewUPSL(o, "")
	if err != nil {
		b.Fatal(err)
	}
	if err := harness.Preload(u, n, 4); err != nil {
		b.Fatal(err)
	}
	h := u.NewHandle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(uint64(i)%n + 1)
	}
}

func BenchmarkScaling_Get1K(b *testing.B)   { benchScalingGet(b, 1_000) }
func BenchmarkScaling_Get10K(b *testing.B)  { benchScalingGet(b, 10_000) }
func BenchmarkScaling_Get100K(b *testing.B) { benchScalingGet(b, 100_000) }

// --- Ablations (design choices called out in DESIGN.md). ---

// Multi-key nodes vs classic one-key nodes.
func BenchmarkAblationNodeKeys_K1(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, 1, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

func BenchmarkAblationNodeKeys_K16(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, 16, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

func BenchmarkAblationNodeKeys_K64(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, 64, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

// Sensitivity to the simulated PMEM access cost.
func BenchmarkAblationPersistCost_Off(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, nil), ycsb.WorkloadA)
}

func BenchmarkAblationPersistCost_On(b *testing.B) {
	runWorkload(b, newBenchUPSL(b, benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel()), ycsb.WorkloadA)
}

// Allocator arena count (contention reduction, §4.3.3).
func benchArenas(b *testing.B, arenas int) {
	o := benchUPSLOptions(benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel())
	o.NumArenas = arenas
	u, err := harness.NewUPSL(o, "")
	if err != nil {
		b.Fatal(err)
	}
	runWorkload(b, u, ycsb.WorkloadD) // insert-heavy enough to allocate
}

func BenchmarkAblationArenas_1(b *testing.B)  { benchArenas(b, 1) }
func BenchmarkAblationArenas_4(b *testing.B)  { benchArenas(b, 4) }
func BenchmarkAblationArenas_16(b *testing.B) { benchArenas(b, 16) }

// Post-crash read throughput under the paper's deferred-repair budget k
// (§4.4.1): k=1 avoids the post-recovery collapse that eager
// repair-on-sight (unlimited k) causes, at the cost of a longer tail of
// stale nodes.
func benchPostCrashReads(b *testing.B, budget int) {
	o := benchUPSLOptions(benchKeysPN, upskiplist.SinglePool, pmem.DefaultCostModel())
	u, err := harness.NewUPSL(o, "")
	if err != nil {
		b.Fatal(err)
	}
	u.Store().SetTuning(skiplist.Tuning{RecoveryBudget: budget})
	if err := harness.Preload(u, benchPreload, 4); err != nil {
		b.Fatal(err)
	}
	// Crash boundary: every node becomes stale.
	if _, err := u.Recover(); err != nil {
		b.Fatal(err)
	}
	h := u.NewHandle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(uint64(i)%benchPreload + 1)
	}
}

func BenchmarkAblationRecoveryBudget_K1(b *testing.B) { benchPostCrashReads(b, 1) }
func BenchmarkAblationRecoveryBudget_K8(b *testing.B) { benchPostCrashReads(b, 8) }
func BenchmarkAblationRecoveryBudget_Unlimited(b *testing.B) {
	benchPostCrashReads(b, -1)
}
