// Package harness drives the paper's evaluation (Chapter 5): it adapts
// UPSkipList, BzTree and the PMDK-style lazy skip list to one index
// interface, replays pre-generated YCSB operation streams against them,
// and measures throughput, per-operation latency percentiles, and
// recovery time.
package harness

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"upskiplist"
	"upskiplist/internal/bztree"
	"upskiplist/internal/exec"
	"upskiplist/internal/hist"
	"upskiplist/internal/lazyskip"
	"upskiplist/internal/pmdktx"
	"upskiplist/internal/pmem"
	"upskiplist/internal/ycsb"
)

// ValueMask keeps generated values inside every structure's legal range
// (BzTree reserves the top bits for PMwCAS tags).
const ValueMask = uint64(1)<<40 - 1

// Handle is a per-worker connection to an index.
type Handle interface {
	Insert(key, value uint64) error
	Read(key uint64) (uint64, bool)
}

// Scanner is implemented by handles that support range queries (the
// paper's future-work feature; workload E exercises it).
type Scanner interface {
	// Scan visits up to n live pairs starting at the first key >= start,
	// returning how many it saw.
	Scan(start uint64, n int) int
}

// BatchHandle is implemented by handles that can apply a slice of
// operations as one group-committed batch (UPSkipList's ApplyBatch).
type BatchHandle interface {
	ApplyBatch(ops []ycsb.Op) error
}

// Index is a benchmarkable key-value structure.
type Index interface {
	Name() string
	NewHandle(threadID int) Handle
	// Recover simulates the paper's recovery test: reconnect to the
	// structure after a crash and return when it can serve requests.
	Recover() (time.Duration, error)
}

// ---------------------------------------------------------------------
// UPSkipList adapter.

// UPSL adapts an upskiplist.Store.
type UPSL struct {
	store *upskiplist.Store
	label string
	// valueSize > 8 makes every insert carry a payload of that many
	// bytes (first 8 = the generated value, rest a fixed pattern) — the
	// payload experiment's knob. 0 or 8 keeps fixed 8-byte values.
	valueSize int
}

// SetValueSize configures the byte size of inserted values (payload
// experiment). Must be set before handles are created.
func (u *UPSL) SetValueSize(n int) { u.valueSize = n }

// NewUPSL creates a store for benchmarking.
func NewUPSL(opts upskiplist.Options, label string) (*UPSL, error) {
	st, err := upskiplist.Create(opts)
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = "UPSkipList"
	}
	return &UPSL{store: st, label: label}, nil
}

// Name implements Index.
func (u *UPSL) Name() string { return u.label }

// Store exposes the underlying store.
func (u *UPSL) Store() *upskiplist.Store { return u.store }

// PoolStats aggregates pmem counters across the store's pools.
func (u *UPSL) PoolStats() pmem.StatsSnapshot {
	var out pmem.StatsSnapshot
	for _, p := range u.store.Pools() {
		s := p.Stats().Snapshot()
		out.Loads += s.Loads
		out.Stores += s.Stores
		out.CASes += s.CASes
		out.Flushes += s.Flushes
		out.Fences += s.Fences
		out.RemoteOps += s.RemoteOps
		out.Misses += s.Misses
		out.Prefetches += s.Prefetches
	}
	return out
}

type upslHandle struct {
	w *upskiplist.Worker
	// vsz/vbuf carry the configured insert payload: the generated uint64
	// lands in the first 8 bytes, the remainder is a fixed pattern laid
	// down once at handle creation.
	vsz  int
	vbuf []byte
	// batch/results/bvals are reusable buffers for ApplyBatch replays;
	// bvals is the flat per-op payload arena (every op needs its bytes
	// live at once).
	batch   []upskiplist.Op
	results []upskiplist.OpResult
	bvals   []byte
}

// NewHandle implements Index.
func (u *UPSL) NewHandle(threadID int) Handle {
	vsz := u.valueSize
	if vsz < 8 {
		vsz = 8
	}
	h := &upslHandle{w: u.store.NewWorker(threadID), vsz: vsz, vbuf: make([]byte, vsz)}
	for i := 8; i < vsz; i++ {
		h.vbuf[i] = byte(i)
	}
	return h
}

func (h *upslHandle) Insert(key, value uint64) error {
	binary.LittleEndian.PutUint64(h.vbuf[:8], value)
	_, _, err := h.w.Put(key, h.vbuf)
	return err
}

func (h *upslHandle) Read(key uint64) (uint64, bool) { return h.w.GetU64(key) }

// Scan implements Scanner via the bottom-level range query.
func (h *upslHandle) Scan(start uint64, n int) int {
	seen := 0
	h.w.Scan(start, ^uint64(0)-1, func(k uint64, v []byte) bool {
		seen++
		return seen < n
	})
	return seen
}

// ApplyBatch implements BatchHandle: reads map to OpGet, everything else
// to the upsert, and the whole slice group-commits through
// Worker.ApplyBatch (one trailing fence per touched shard). Scans are
// not batchable and must be routed by the caller through Scanner.
func (h *upslHandle) ApplyBatch(ops []ycsb.Op) error {
	h.batch = h.batch[:0]
	if need := len(ops) * h.vsz; cap(h.bvals) < need {
		h.bvals = make([]byte, need)
	}
	bvals := h.bvals[:0]
	for _, op := range ops {
		switch op.Type {
		case ycsb.Read:
			h.batch = append(h.batch, upskiplist.Op{Kind: upskiplist.OpGet, Key: op.Key})
		default:
			off := len(bvals)
			bvals = append(bvals, h.vbuf...)
			binary.LittleEndian.PutUint64(bvals[off:off+8], op.Value&ValueMask|1)
			h.batch = append(h.batch, upskiplist.Op{
				Kind: upskiplist.OpInsert, Key: op.Key, Value: bvals[off : off+h.vsz : off+h.vsz],
			})
		}
	}
	if cap(h.results) < len(h.batch) {
		h.results = make([]upskiplist.OpResult, len(h.batch))
	}
	res := h.w.ApplyBatchInto(h.batch, h.results[:len(h.batch)])
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Recover implements Index: reattach the pools and bump the epoch —
// UPSkipList's whole recovery (§4.1.5).
func (u *UPSL) Recover() (time.Duration, error) {
	start := time.Now()
	st, err := u.store.Reopen()
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	u.store = st
	return d, nil
}

// ---------------------------------------------------------------------
// BzTree adapter.

// BzTreeIndex adapts a bztree.Tree.
type BzTreeIndex struct {
	pool *pmem.Pool
	tree *bztree.Tree
	cfg  bztree.Config
}

// NewBzTree creates a tree for benchmarking.
func NewBzTree(cfg bztree.Config, cost *pmem.CostModel) (*BzTreeIndex, error) {
	pool, err := pmem.NewPool(pmem.Config{Words: cfg.RegionWords, HomeNode: -1, Cost: cost})
	if err != nil {
		return nil, err
	}
	tr, err := bztree.Create(pool, 0, cfg)
	if err != nil {
		return nil, err
	}
	return &BzTreeIndex{pool: pool, tree: tr, cfg: cfg}, nil
}

// Name implements Index.
func (b *BzTreeIndex) Name() string {
	return fmt.Sprintf("BzTree(%dK desc.)", b.cfg.Descriptors/1000)
}

type bzHandle struct {
	t   *bztree.Tree
	ctx *exec.Ctx
}

// NewHandle implements Index.
func (b *BzTreeIndex) NewHandle(threadID int) Handle {
	return bzHandle{t: b.tree, ctx: exec.NewCtx(threadID, -1)}
}

// The baselines have no operation boundary of their own at which the
// handle's cost-model ledger could be published, so each adapter call
// publishes as it returns (see pmem.Acc.Publish).

func (h bzHandle) Insert(key, value uint64) error {
	defer h.ctx.Mem.Publish()
	_, _, err := h.t.Insert(h.ctx, key, value)
	return err
}

func (h bzHandle) Read(key uint64) (uint64, bool) {
	defer h.ctx.Mem.Publish()
	return h.t.Get(h.ctx, key)
}

// Scan implements Scanner via BzTree's sorted-leaf range scan.
func (h bzHandle) Scan(start uint64, n int) int {
	defer h.ctx.Mem.Publish()
	return h.t.Scan(h.ctx, start, n, nil)
}

// Recover implements Index: reattach + full PMwCAS descriptor-pool scan.
func (b *BzTreeIndex) Recover() (time.Duration, error) {
	start := time.Now()
	tr, _, err := bztree.Attach(b.pool, 0, b.cfg.NumThreads)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	b.tree = tr
	return d, nil
}

// ---------------------------------------------------------------------
// PMDK lock-based skip list adapter.

// LazyIndex adapts a lazyskip.List.
type LazyIndex struct {
	pool *pmem.Pool
	heap *pmdktx.Heap
	list *lazyskip.List
}

// NewLazy creates a lock-based PMDK-style skip list for benchmarking.
func NewLazy(regionWords uint64, maxHeight, numThreads int, cost *pmem.CostModel) (*LazyIndex, error) {
	pool, err := pmem.NewPool(pmem.Config{ID: 1, Words: regionWords, HomeNode: -1, Cost: cost})
	if err != nil {
		return nil, err
	}
	h, err := pmdktx.Format(pool, 0, pmdktx.Config{
		RegionWords: regionWords, NumLogs: numThreads, LogCap: 256,
	})
	if err != nil {
		return nil, err
	}
	l, err := lazyskip.Create(h, maxHeight)
	if err != nil {
		return nil, err
	}
	return &LazyIndex{pool: pool, heap: h, list: l}, nil
}

// Name implements Index.
func (l *LazyIndex) Name() string { return "PMDK skip list" }

// Pool exposes the underlying pool (stats, tests).
func (l *LazyIndex) Pool() *pmem.Pool { return l.pool }

// PoolStats returns the pool's pmem counters.
func (l *LazyIndex) PoolStats() pmem.StatsSnapshot { return l.pool.Stats().Snapshot() }

type lazyHandle struct {
	l   *lazyskip.List
	ctx *exec.Ctx
}

// NewHandle implements Index.
func (l *LazyIndex) NewHandle(threadID int) Handle {
	return lazyHandle{l: l.list, ctx: exec.NewCtx(threadID, -1)}
}

func (h lazyHandle) Insert(key, value uint64) error {
	defer h.ctx.Mem.Publish()
	_, _, err := h.l.Insert(h.ctx, key, value)
	return err
}

func (h lazyHandle) Read(key uint64) (uint64, bool) {
	defer h.ctx.Mem.Publish()
	return h.l.Get(h.ctx, key)
}

// Scan implements Scanner via the lazy list's bottom level.
func (h lazyHandle) Scan(start uint64, n int) int {
	defer h.ctx.Mem.Publish()
	return h.l.Scan(h.ctx, start, n, nil)
}

// Recover implements Index: roll back interrupted transactions and bump
// the lock-stealing epoch (libpmemobj-style recovery, O(threads)).
func (l *LazyIndex) Recover() (time.Duration, error) {
	start := time.Now()
	nl, err := lazyskip.Open(l.heap, true)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	l.list = nl
	return d, nil
}

// ---------------------------------------------------------------------
// Runners.

// Preload inserts keys 1..n with value key|1 using several goroutines.
func Preload(idx Index, n uint64, threads int) error {
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, threads)
	per := n / uint64(threads)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := idx.NewHandle(t)
			lo := uint64(t)*per + 1
			hi := lo + per
			if t == threads-1 {
				hi = n + 1
			}
			for k := lo; k < hi; k++ {
				if err := h.Insert(k, (k*7+1)&ValueMask); err != nil {
					errs[t] = err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ThroughputResult is one throughput measurement.
type ThroughputResult struct {
	Index     string
	Workload  string
	Threads   int
	Ops       int
	Duration  time.Duration
	OpsPerSec float64
}

// RunThroughput replays opsPerThread pre-generated operations per thread
// and reports aggregate throughput. Workload generation happens before
// the clock starts, as in §5.1.2.
func RunThroughput(idx Index, w ycsb.Workload, run *ycsb.Run, threads, opsPerThread int) (ThroughputResult, error) {
	streams := make([][]ycsb.Op, threads)
	for t := 0; t < threads; t++ {
		streams[t] = run.NewStream(int64(t)+1).Fill(nil, opsPerThread)
	}
	handles := make([]Handle, threads)
	for t := 0; t < threads; t++ {
		handles[t] = idx.NewHandle(t)
	}
	errs := make([]error, threads)
	runtime.GC()

	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := handles[t]
			sc, canScan := h.(Scanner)
			for _, op := range streams[t] {
				switch op.Type {
				case ycsb.Read:
					h.Read(op.Key)
				case ycsb.Scan:
					if canScan {
						sc.Scan(op.Key, op.ScanLen)
					} else {
						h.Read(op.Key) // structure without range queries
					}
				default:
					if err := h.Insert(op.Key, op.Value&ValueMask|1); err != nil {
						errs[t] = err
						return
					}
				}
			}
		}(t)
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ThroughputResult{}, err
		}
	}
	total := threads * opsPerThread
	return ThroughputResult{
		Index: idx.Name(), Workload: w.Name, Threads: threads,
		Ops: total, Duration: dur,
		OpsPerSec: float64(total) / dur.Seconds(),
	}, nil
}

// LatencyResult carries per-operation-type histograms (ns).
type LatencyResult struct {
	Index    string
	Workload string
	Threads  int
	ByOp     map[ycsb.OpType]*hist.Histogram
}

// RunLatency measures per-operation latency, separated by type as in
// Figures 5.5/5.6.
func RunLatency(idx Index, w ycsb.Workload, run *ycsb.Run, threads, opsPerThread int) (LatencyResult, error) {
	res := LatencyResult{
		Index: idx.Name(), Workload: w.Name, Threads: threads,
		ByOp: map[ycsb.OpType]*hist.Histogram{
			ycsb.Read: {}, ycsb.Update: {}, ycsb.Insert: {},
		},
	}
	streams := make([][]ycsb.Op, threads)
	for t := 0; t < threads; t++ {
		streams[t] = run.NewStream(int64(t)+101).Fill(nil, opsPerThread)
	}
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := idx.NewHandle(t)
			for _, op := range streams[t] {
				start := time.Now()
				var err error
				if op.Type == ycsb.Read {
					h.Read(op.Key)
				} else {
					err = h.Insert(op.Key, op.Value&ValueMask|1)
				}
				res.ByOp[op.Type].RecordSince(start)
				if err != nil {
					errs[t] = err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// RecoveryResult is one recovery-time measurement (Table 5.4).
type RecoveryResult struct {
	Index  string
	Trials int
	Mean   time.Duration
}

// RunRecovery runs an insert-heavy load, interrupts it (leaving
// operations in flight exactly as §5.2.5 does), then measures Recover
// over the requested number of trials.
func RunRecovery(idx Index, preload uint64, threads, trials int) (RecoveryResult, error) {
	if err := Preload(idx, preload, threads); err != nil {
		return RecoveryResult{}, err
	}
	var total time.Duration
	for i := 0; i < trials; i++ {
		d, err := idx.Recover()
		if err != nil {
			return RecoveryResult{}, err
		}
		total += d
	}
	return RecoveryResult{
		Index: idx.Name(), Trials: trials, Mean: total / time.Duration(trials),
	}, nil
}
