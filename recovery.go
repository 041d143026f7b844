package upskiplist

// Recovery. Reopen and Load run the per-shard recovery pipeline (pool
// attach + allocator assembly -> skip-list open -> slab crash-leak
// sweep) for every shard, with the shards spread over
// min(GOMAXPROCS, shards) goroutines. Inside a shard the phases run
// serially on one goroutine — the sweep needs the opened list for its
// liveness walk — so what recovery charges a shard's pools is the same
// on any host.

import (
	"errors"
	"fmt"
	"runtime"
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
}

// RecoveryStats returns what the Reopen/Load that produced this handle
// did. Zero for stores built by Create.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovery }

// DeferredRepairs sums the shards' deferred repairs since this handle
// opened (skiplist.Recoveries).
func (s *Store) DeferredRepairs() (out skiplist.Recoveries) {
	for _, e := range s.shards {
		r := e.list.RecoveryStats()
		out = skiplist.Recoveries{Claims: out.Claims + r.Claims, Inserts: out.Inserts + r.Inserts,
			Splits: out.Splits + r.Splits, SplitErased: out.SplitErased + r.SplitErased}
	}
	return out
}

// LoadConfig tunes LoadWithConfig beyond what the dump's meta sidecar
// records.
type LoadConfig struct {
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

// shardRecovery accumulates one shard's recovery phase timings and
// counters.
type shardRecovery struct {
	attach, open, sweep        time.Duration
	pagesSwept, chunksRelinked uint64
}

// recoverShard runs one shard's recovery pipeline over its (already
// present) pools: attach the allocator, advance the epoch, open the
// list, sweep the slab arena.
func recoverShard(opts Options, tuning skiplist.Tuning, pools []*pmem.Pool, rec *shardRecovery) (*engine, error) {
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
	if err := e.attachVals(true); err != nil {
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

// recoverShards runs body for each of n shards on min(GOMAXPROCS, n)
// goroutines, each taking the next unclaimed shard until none is left.
// The first error (or converted crash) stops new work; non-crash panics
// are re-raised on the calling goroutine.
func recoverShards(n int, body func(shard int) error) error {
	var (
		next     atomic.Int64
		failed   atomic.Bool
		panicked atomic.Pointer[any]
		wg       sync.WaitGroup
		errMu    sync.Mutex
		first    error
	)
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runRecoveryStep(i, body, &panicked); err != nil {
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
func summarizeRecovery(recs []shardRecovery, wall time.Duration) RecoveryStats {
	out := RecoveryStats{Wall: wall}
	for i := range recs {
		out.Attach += recs[i].attach
		out.Open += recs[i].open
		out.Sweep += recs[i].sweep
		out.PagesSwept += recs[i].pagesSwept
		out.ChunksRelinked += recs[i].chunksRelinked
	}
	return out
}
