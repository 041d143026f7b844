package upskiplist

// Parallel recovery. Reopen and Load fan the per-shard recovery
// pipeline (pool attach + allocator assembly -> skip-list open -> slab
// crash-leak sweep) out across a bounded worker pool, and hand each
// shard worker a residual budget that the allocator's whole-pool kind
// scans and the slab sweep's page scans split into goroutines of their
// own. The phase DAG per shard is strictly sequential — the sweep needs
// the opened list for its liveness walk — so all the parallelism comes
// from running shards concurrently and partitioning the page ranges
// inside each phase.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

// ErrRecoveryInterrupted reports a crash injector firing while
// Reopen/Load was reconstructing the store: the machine died again
// mid-recovery. The pools are exactly as the crash left them; rerunning
// recovery (after SimulateCrash, in tests) converges to the same state
// — every recovery phase is idempotent. Wrap-tested with errors.Is.
var ErrRecoveryInterrupted = errors.New("upskiplist: recovery interrupted by a crash")

// RecoveryStats describes what the last Reopen or Load of this handle
// did: wall time to ready, per-phase durations (summed across shards,
// so with parallel shards the phases can exceed the wall), and the
// recovery work counters.
type RecoveryStats struct {
	// Parallelism is the effective worker budget recovery ran with.
	Parallelism int
	// Attach covers pool attach/read and allocator assembly; Open the
	// skip-list root open plus interrupted-retirement completion; Sweep
	// the slab crash-leak scans; BulkLoad the logical-dump rebuild. Each
	// is summed over shards.
	Attach   time.Duration
	Open     time.Duration
	Sweep    time.Duration
	BulkLoad time.Duration
	// Wall is the end-to-end time from entering recovery to the store
	// being ready to serve.
	Wall time.Duration

	// PagesSwept counts slab pages scanned and ChunksRelinked leaked
	// chunks rediscovered onto free lists.
	PagesSwept     uint64
	ChunksRelinked uint64
	// KeysBulkLoaded / NodesBulkBuilt count the sorted-dump bottom-up
	// build.
	KeysBulkLoaded uint64
	NodesBulkBuilt uint64

	// CostUnits is the simulated-PMEM latency charged during recovery —
	// the cost model's spin ledger (hits, misses, stores, flushes,
	// fences) summed over every shard's pools. CriticalPathUnits is the
	// largest share any one recovery worker executed: the simulated
	// makespan. Their ratio is the recovery parallel speedup under the
	// simulator's cost model, independent of how many host cores the
	// busy-spin charges actually spread over. Both are zero when the
	// store runs without a cost model.
	CostUnits         uint64
	CriticalPathUnits uint64
}

// SimSpeedup returns CostUnits / CriticalPathUnits — the parallel
// speedup of the recovery under the simulated cost model (1 for a
// serial recovery or when no cost model is attached).
func (r RecoveryStats) SimSpeedup() float64 {
	if r.CriticalPathUnits == 0 {
		return 1
	}
	return float64(r.CostUnits) / float64(r.CriticalPathUnits)
}

// SimWall returns the wall time the recovery would have taken if the
// charged PMEM latency had actually overlapped across its workers:
// Wall scaled by the critical-path share. On a host with enough cores
// the busy-spin charges overlap for real and SimWall ~= Wall; on fewer
// cores the spins serialize and SimWall reports what the cost model —
// the same model behind every other benchmark number — says the
// parallel recovery costs.
func (r RecoveryStats) SimWall() time.Duration {
	if r.CostUnits == 0 || r.CriticalPathUnits == 0 {
		return r.Wall
	}
	return time.Duration(float64(r.Wall) * float64(r.CriticalPathUnits) / float64(r.CostUnits))
}

// costUnits folds one pool-stats delta into the cost model's spin
// ledger: the units the simulator charged for those accesses.
func costUnits(c *pmem.CostModel, s pmem.StatsSnapshot) uint64 {
	if c == nil {
		return 0
	}
	hits := uint64(0)
	if s.Loads > s.Misses {
		hits = s.Loads - s.Misses
	}
	return hits*uint64(c.HitPenalty) +
		s.Misses*uint64(c.LoadPenalty) +
		s.RemoteOps*uint64(c.RemotePenalty) +
		(s.Stores+s.CASes)*uint64(c.StorePenalty) +
		s.Flushes*uint64(c.FlushPenalty) +
		s.Fences*uint64(c.FencePenalty) +
		s.Prefetches*uint64(c.PrefetchPenalty)
}

// poolUnits sums the charge ledger over a shard's pools.
func poolUnits(c *pmem.CostModel, pools []*pmem.Pool) uint64 {
	var total uint64
	for _, p := range pools {
		total += costUnits(c, p.Stats().Snapshot())
	}
	return total
}

// makespan schedules per-item cost units onto `workers` bins greedily,
// largest first, and returns the fullest bin — the simulated parallel
// completion time of independent work under a fixed worker budget.
func makespan(units []uint64, workers int) uint64 {
	if workers < 1 {
		workers = 1
	}
	sorted := append([]uint64(nil), units...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	bins := make([]uint64, workers)
	for _, u := range sorted {
		min := 0
		for b := 1; b < workers; b++ {
			if bins[b] < bins[min] {
				min = b
			}
		}
		bins[min] += u
	}
	var max uint64
	for _, b := range bins {
		if b > max {
			max = b
		}
	}
	return max
}

// RecoveryStats returns what the Reopen/Load that produced this handle
// did. Zero for stores built by Create.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovery }

// LoadConfig tunes LoadWithConfig beyond what the dump's meta sidecar
// records.
type LoadConfig struct {
	// RecoveryParallelism overrides Options.RecoveryParallelism for this
	// load (0 keeps the default, GOMAXPROCS; 1 recovers serially).
	RecoveryParallelism int
	// Injector, when non-nil, is installed on every pool before recovery
	// work begins, so crash-during-recovery tests can kill the load at
	// an arbitrary pool access. It stays installed on the returned
	// store's pools.
	Injector pmem.Injector
	// Cost attaches a PMEM cost model to the loaded pools. The meta
	// sidecar does not persist one (it is benchmark configuration, not
	// store state), so a store saved from a cost-modelled run loads
	// costless unless the loader re-supplies the model here.
	Cost *pmem.CostModel
}

// normalizeRecoveryParallelism resolves the configured budget: 0 means
// one worker per available CPU.
func normalizeRecoveryParallelism(p int) int {
	if p == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		return 1
	}
	return p
}

// shardRecovery accumulates one shard's recovery phase timings and
// counters.
type shardRecovery struct {
	attach, open, sweep        time.Duration
	pagesSwept, chunksRelinked uint64
	// units is the simulated cost charged against this shard's pools —
	// exact attribution, since shards never share a pool.
	units uint64
}

// recoverShard runs one shard's recovery pipeline over its (already
// present) pools: attach the allocator, advance the epoch, open the
// list, sweep the slab arena. scanPar is the intra-shard budget for the
// allocator kind scans and the sweep's page partitioning.
func recoverShard(opts Options, tuning skiplist.Tuning, pools []*pmem.Pool, scanPar int, rec *shardRecovery) (*engine, error) {
	unitsBefore := poolUnits(opts.Cost, pools)
	defer func() { rec.units += poolUnits(opts.Cost, pools) - unitsBefore }()
	t := time.Now()
	var pas []*alloc.PoolAllocator
	for _, p := range pools {
		pa, err := alloc.Attach(p)
		if err != nil {
			return nil, err
		}
		pas = append(pas, pa)
	}
	e, err := assembleEngine(opts, pools, pas, true)
	if err != nil {
		return nil, err
	}
	e.alloc.SetScanParallelism(scanPar)
	rec.attach += time.Since(t)

	t = time.Now()
	list, err := skiplist.Open(e.alloc)
	if err != nil {
		return nil, err
	}
	list.SetTuning(tuning)
	e.list = list
	rec.open += time.Since(t)

	t = time.Now()
	if err := e.attachVals(true, scanPar); err != nil {
		return nil, err
	}
	rec.sweep += time.Since(t)
	st := e.vals.Stats()
	rec.pagesSwept = st.SweepScanned
	rec.chunksRelinked = st.SweepRelinked
	return e, nil
}

// crashToErr is the one place a crash-injector kill becomes an error.
// Deferred by every goroutine that runs recovery work, it turns a
// pmem.CrashSignal panic into ErrRecoveryInterrupted naming who died at
// the failure. Any other panic is parked in panicked for the goroutine
// that coordinates the workers to re-raise, or re-raised here when there
// is no coordinator (panicked nil).
func crashToErr(err *error, who string, panicked *atomic.Pointer[any]) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(pmem.CrashSignal); ok {
		*err = fmt.Errorf("%w: %s died", ErrRecoveryInterrupted, who)
		return
	}
	if panicked == nil {
		panic(r)
	}
	panicked.CompareAndSwap(nil, &r)
	*err = fmt.Errorf("upskiplist: %s panicked", who)
}

// catchCrash runs body on the calling goroutine, converting a
// crash-injector kill into ErrRecoveryInterrupted. Other panics pass
// through.
func catchCrash(body func() error) (err error) {
	defer crashToErr(&err, "dump loader", nil)
	return body()
}

// runRecoveryStep executes one shard's recovery body, converting a
// crash-injector kill into ErrRecoveryInterrupted (the shard worker
// "died at the failure") and parking anything else in panicked.
func runRecoveryStep(i int, body func(i int) error, panicked *atomic.Pointer[any]) (err error) {
	defer crashToErr(&err, fmt.Sprintf("shard %d worker", i), panicked)
	return body(i)
}

// recoverShards fans body out over n shards with a pool of outer
// workers, giving each call the leftover intra-shard scan budget. The
// first error (or converted crash) stops new work; non-crash panics are
// re-raised on the calling goroutine.
func recoverShards(n, par int, body func(shard, scanPar int) error) error {
	outer := par
	if outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner := par / outer
	if inner < 1 {
		inner = 1
	}
	var panicked atomic.Pointer[any]
	if outer == 1 {
		for i := 0; i < n; i++ {
			err := runRecoveryStep(i, func(i int) error { return body(i, inner) }, &panicked)
			if r := panicked.Load(); r != nil {
				panic(*r)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errMu  sync.Mutex
		first  error
	)
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runRecoveryStep(i, func(i int) error { return body(i, inner) }, &panicked); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return first
}

// summarizeRecovery folds the per-shard records into one RecoveryStats.
// The critical path treats each shard as one unit of work scheduled
// onto the par-worker budget (intra-shard scan splitting is counted
// conservatively, as part of its shard).
func summarizeRecovery(par int, recs []shardRecovery, wall time.Duration) RecoveryStats {
	out := RecoveryStats{Parallelism: par, Wall: wall}
	units := make([]uint64, 0, len(recs))
	for i := range recs {
		out.Attach += recs[i].attach
		out.Open += recs[i].open
		out.Sweep += recs[i].sweep
		out.PagesSwept += recs[i].pagesSwept
		out.ChunksRelinked += recs[i].chunksRelinked
		out.CostUnits += recs[i].units
		units = append(units, recs[i].units)
	}
	out.CriticalPathUnits = makespan(units, par)
	return out
}
