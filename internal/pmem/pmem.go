// Package pmem simulates byte-addressable persistent memory for the
// UPSkipList reproduction.
//
// A Pool is a word-addressable array of uint64 that stands in for a
// memory-mapped persistent-memory pool (an Intel Optane DC "app-direct"
// pool in the paper). The simulation reproduces the property every
// recoverable algorithm in the paper is written against: stores become
// durable only once their cache line has been explicitly flushed, and a
// crash discards every write that was still in the volatile domain.
//
// Two operating modes exist:
//
//   - Fast mode (default): loads, stores and CAS operate directly on the
//     word array. Persist and Fence only update statistics (and charge the
//     optional cost model). This is the mode used for throughput and
//     latency benchmarks.
//
//   - Tracking mode (EnableTracking): the pool additionally keeps, for
//     every cache line that has been modified since its last flush, a
//     shadow copy of the line's last-persisted contents. Crash() reverts
//     all such lines, which is exactly what a power failure does to a real
//     persistent-memory system. This mode drives the crash-recovery tests
//     of Chapter 6.
//
// All state that an algorithm wants to survive a crash must live inside
// pool words; Go-heap pointers never cross the persistence boundary.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"upskiplist/internal/hist"
)

// LineWords is the number of 64-bit words in a simulated cache line
// (64 bytes, matching x86).
const LineWords = 8

// lineShift converts a word offset to a line index.
const lineShift = 3

// shardCount is the number of independent locks protecting the shadow
// table in tracking mode. Must be a power of two.
const shardCount = 64

// Errors returned by pool construction and persistence helpers.
var (
	ErrPoolTooSmall = errors.New("pmem: pool size must be at least one cache line")
	ErrBadImage     = errors.New("pmem: malformed pool image")
	ErrOutOfRange   = errors.New("pmem: offset out of range")
)

// statShards spreads the published counters so that accessors folding
// their ledgers in at the same moment do not serialize on one cache
// line. Each Acc is assigned a shard at creation; accessor-less
// (administrative) accesses share shard 0.
const statShards = 32

// counter names one of the cost model's event counts.
type counter int

const (
	cLoads counter = iota
	cStores
	cCASes
	cFlushes
	cFences
	cRemoteOps
	cMisses
	cPrefetches
	numCounters // 8 words: a statCell is exactly one cache line
)

// counts is a plain set of the counters: an accessor's ledger, or a sum
// of cells on its way to a StatsSnapshot.
type counts [numCounters]uint64

// statCell is one padded shard of counters.
type statCell [numCounters]atomic.Uint64

// add folds a plain delta into the cell. Most publications carry a few
// of the eight counters; the untouched ones are skipped.
func (c *statCell) add(d *counts) {
	for k, n := range d {
		if n != 0 {
			c[k].Add(n)
		}
	}
}

// Stats holds cumulative operation counters for one pool.
//
// Accesses made through an Acc are counted in that accessor's private
// ledger first and reach these cells when the ledger is published (see
// Acc.Publish for the points at which that happens); accessor-less
// accesses are added here directly.
type Stats struct {
	cells [statShards]statCell
}

// Snapshot returns a plain-struct copy of the aggregated counters. It
// may be called at any time from any goroutine. It is exact for every
// accessor that is between operations — one that has returned from its
// last public skip-list, engine or recovery call, or
// has called Publish itself — and for all accessor-less accesses; an
// accessor in the middle of an operation may hold back what it did
// since its last fence, at most ledgerFlushEvents accesses.
func (s *Stats) Snapshot() StatsSnapshot {
	var sum counts
	for i := range s.cells {
		for k := range sum {
			sum[k] += s.cells[i][k].Load()
		}
	}
	return StatsSnapshot{
		Loads:      sum[cLoads],
		Stores:     sum[cStores],
		CASes:      sum[cCASes],
		Flushes:    sum[cFlushes],
		Fences:     sum[cFences],
		RemoteOps:  sum[cRemoteOps],
		Misses:     sum[cMisses],
		Prefetches: sum[cPrefetches],
	}
}

// StatsSnapshot is a point-in-time copy of a pool's Stats.
type StatsSnapshot struct {
	Loads      uint64
	Stores     uint64
	CASes      uint64
	Flushes    uint64
	Fences     uint64
	RemoteOps  uint64
	Misses     uint64
	Prefetches uint64
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("loads=%d stores=%d cas=%d flushes=%d fences=%d remote=%d prefetch=%d",
		s.Loads, s.Stores, s.CASes, s.Flushes, s.Fences, s.RemoteOps, s.Prefetches)
}

// CostModel describes the synthetic access-latency model used by
// benchmarks. Each penalty is a spin count burned on the accessing
// goroutine; zero disables the charge.
//
// Loads are charged at cache-line granularity: each worker carries a
// small direct-mapped line cache (Acc); a load that hits a cached line
// pays HitPenalty, a miss pays LoadPenalty (plus RemotePenalty for a
// line homed on another NUMA node). This is what makes the paper's
// cache-density arguments — single-word RIV pointers vs two-word fat
// pointers, metadata sharing the first key's line — actually measurable
// in the simulation. The defaults model the relative costs reported by
// Izraelevitz et al. (PMEM random read ~3x DRAM, flushes on the store
// path, remote-NUMA accesses slower than local).
type CostModel struct {
	HitPenalty    int // load from a line in the worker's cache
	LoadPenalty   int // load that misses the worker's line cache
	StorePenalty  int // store or CAS (write latency hidden by the controller)
	FlushPenalty  int // per cache-line flush
	FencePenalty  int // per memory fence
	RemotePenalty int // extra charge when a missed line is remote
	// PrefetchPenalty is the charge for a Prefetch hint that misses the
	// worker's line cache: the issue cost of a PREFETCHT0 whose memory
	// latency then overlaps the compare work the caller keeps doing —
	// well below LoadPenalty, which is what makes foresight-style
	// traversal prefetching profitable. Zero keeps prefetches free while
	// still warming the line cache.
	PrefetchPenalty int
	// FlushContention is the extra charge per concurrent flusher beyond
	// the first, modelling the PMEM controller's persist bandwidth
	// saturating "at a low number of concurrent threads" (§2.1.3). This
	// is what makes flush-heavy synchronization (PMwCAS descriptors)
	// degrade under write-heavy concurrency, as in Figure 5.1.
	FlushContention int
}

// DefaultCostModel returns the cost model used by the paper-shaped
// benchmarks.
func DefaultCostModel() *CostModel {
	return &CostModel{
		HitPenalty:      2,
		LoadPenalty:     48,
		StorePenalty:    8,
		FlushPenalty:    56,
		FencePenalty:    8,
		RemotePenalty:   24,
		PrefetchPenalty: 12,
		FlushContention: 48,
	}
}

// accSets/accWays size the worker line cache (2-way set-associative);
// at 64 bytes a line this simulates a ~512 KiB private-cache slice per
// worker — the scale at which the paper's cache-density effects (hot
// zipfian paths staying resident, fat pointers doubling the working
// set) become visible.
const (
	accSets = 4096
	accWays = 2
)

// Acc is a per-worker accessor: its NUMA node, a small set-associative
// cache of recently touched (pool, line) tags used by the cost model,
// and the worker's private cost-model ledger. Workers must not share an
// Acc. A nil *Acc means "no placement, no cache" (administrative
// accesses, tests).
type Acc struct {
	Node  int
	shard uint32 // stats shard, assigned round-robin at creation
	// fenceTick drives 1-in-fenceSample fence-wait observation (see
	// SetFenceObserver). Owner-goroutine state like the rest of the Acc.
	fenceTick uint32

	// The ledger. Every access this accessor is charged for is counted
	// here with plain arithmetic — the counters of the one pool it is
	// currently charging, and the sink its spin loops drain into — so
	// the instrument writes no shared cache line on the access path.
	// Publish folds the counters into the pool's Stats.
	pool    *Pool  // pool the pending counts belong to
	led     counts // counts not yet published
	pending uint32 // charged calls since the last Publish
	sink    uint64 // keeps the spin loops from being optimized away

	tags [accSets][accWays]uint64
}

// ledgerFlushEvents is the number of charged calls after which the
// ledger publishes itself, so that an operation that runs long without
// fencing (a full scan, a recovery sweep) stays visible in
// Stats.Snapshot to within this many accesses.
const ledgerFlushEvents = 256

// accSeq hands out stats shards.
var accSeq atomic.Uint32

// NewAcc returns an accessor pinned to the given NUMA node.
func NewAcc(node int) *Acc {
	return &Acc{Node: node, shard: accSeq.Add(1) % statShards}
}

// count charges one call of n events of kind k by acc to p: into acc's
// ledger when it is on p and below the threshold, through countSlow
// otherwise. (Load carries a copy of the first case: count is a little
// over the inliner's budget, and a call shows on a 6 ns line-cache hit.)
func (p *Pool) count(k counter, n uint64, acc *Acc) {
	if acc != nil && acc.pool == p && acc.pending < ledgerFlushEvents {
		acc.pending++
		acc.led[k] += n
	} else {
		p.countSlow(k, n, acc)
	}
}

// countSlow counts an accessor-less access straight into the pool's
// Stats; for an accessor, it publishes what is pending and turns the
// ledger, which holds one pool's counts at a time, to p.
//
//go:noinline
func (p *Pool) countSlow(k counter, n uint64, acc *Acc) {
	if acc == nil {
		p.stats.cells[0][k].Add(n)
		return
	}
	acc.Publish()
	acc.pool = p
	acc.pending = 1
	acc.led[k] = n
}

// Publish folds the accessor's pending counts into the Stats of the
// pool they were charged to and leaves the ledger empty. The pool
// accessors call it when the accessor moves to another pool, at every
// Fence, and every ledgerFlushEvents charged calls; code that owns an
// accessor calls it when an operation ends — SkipList's outermost unpin,
// a quiesced drain, a recovery or loader step — and a caller driving a
// Pool directly calls it before reading Stats. Owner-goroutine only,
// like every other use of the accessor. A nil accessor has no ledger.
func (a *Acc) Publish() {
	if a == nil || a.pending == 0 {
		return
	}
	a.pool.stats.cells[a.shard].add(&a.led)
	a.led = counts{}
	a.pending = 0
}

// touch records an access to a line and reports whether it was cached.
func (a *Acc) touch(pool uint16, line uint64) bool {
	tag := uint64(pool)<<44 | (line + 1)
	set := &a.tags[(line^line>>13)&(accSets-1)]
	if set[0] == tag {
		return true
	}
	if set[1] == tag {
		// Promote to MRU.
		set[1], set[0] = set[0], tag
		return true
	}
	// Evict LRU.
	set[1], set[0] = set[0], tag
	return false
}

// spin burns n iterations of the cost model's unit of latency. Its
// result must be stored somewhere the compiler cannot prove dead: the
// accessor's own sink, or spinSink for accessor-less callers.
func spin(n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc += uint64(i) ^ (acc << 1)
	}
	return acc
}

// spinSink takes the spin results of accessor-less accesses, which have
// no private sink. It is one shared cache line; nothing on a worker's
// access path touches it.
var spinSink atomic.Uint64

// burn charges n units of latency to a, which may be nil.
func (a *Acc) burn(n int) {
	if n <= 0 {
		return
	}
	if a == nil {
		spinSink.Add(spin(n))
		return
	}
	a.sink += spin(n)
}

// shadowShard guards a slice of the dirty-line shadow table.
type shadowShard struct {
	mu    sync.Mutex
	lines map[uint64]*[LineWords]uint64 // line index -> last persisted contents
}

// Pool is one simulated persistent-memory pool.
type Pool struct {
	id    uint16
	words []uint64

	// NUMA placement. homeNode >= 0 places the whole pool on one node.
	// stripeNodes > 0 instead interleaves cache lines across that many
	// nodes (modelling a pool striped across NUMA-attached DIMMs, the
	// paper's "striped device").
	homeNode    int
	stripeNodes int

	cost *CostModel

	inj atomic.Pointer[injBox]

	// flushers tracks concurrent Persist callers for the contention model.
	flushers atomic.Int64

	// fenceObs, when set, receives the wall-clock duration of every
	// Fence (see SetFenceObserver).
	fenceObs atomic.Pointer[hist.Histogram]

	tracking atomic.Bool
	shards   [shardCount]shadowShard

	stats Stats
}

// Config describes how to create a Pool.
type Config struct {
	ID    uint16
	Words uint64 // pool size in 64-bit words; rounded up to a cache line
	// HomeNode is the NUMA node the pool lives on; -1 with StripeNodes=0
	// means placement is not modelled.
	HomeNode int
	// StripeNodes, when > 0, stripes the pool's cache lines round-robin
	// across nodes [0, StripeNodes).
	StripeNodes int
	Cost        *CostModel
}

// NewPool creates a pool of the configured size with all words zero.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Words < LineWords {
		return nil, ErrPoolTooSmall
	}
	return newPool(cfg, make([]uint64, (cfg.Words+LineWords-1)&^(LineWords-1))), nil
}

// newPool wraps words, whose length is a whole number of lines, as a
// pool.
func newPool(cfg Config, words []uint64) *Pool {
	p := &Pool{
		id:          cfg.ID,
		words:       words,
		homeNode:    cfg.HomeNode,
		stripeNodes: cfg.StripeNodes,
		cost:        cfg.Cost,
	}
	for i := range p.shards {
		p.shards[i].lines = make(map[uint64]*[LineWords]uint64)
	}
	return p
}

// ID returns the pool's identifier (the RIV pool field).
func (p *Pool) ID() uint16 { return p.id }

// Size returns the pool size in words.
func (p *Pool) Size() uint64 { return uint64(len(p.words)) }

// HomeNode returns the pool's NUMA node, or -1 for striped/unplaced pools.
func (p *Pool) HomeNode() int {
	if p.stripeNodes > 0 {
		return -1
	}
	return p.homeNode
}

// Stats returns the pool's counter block.
func (p *Pool) Stats() *Stats { return &p.stats }

// nodeOf reports which NUMA node owns the cache line containing off.
func (p *Pool) nodeOf(off uint64) int {
	if p.stripeNodes > 0 {
		return int((off >> lineShift) % uint64(p.stripeNodes))
	}
	return p.homeNode
}

// chargeLoad applies the cost model for one load by acc: a line-cache
// hit is cheap; a miss pays full PMEM read latency plus the remote
// surcharge when the line lives on another node. The caller has already
// counted the load, so a non-nil acc's ledger is on p.
func (p *Pool) chargeLoad(off uint64, acc *Acc) {
	c := p.cost
	if c == nil {
		return
	}
	if acc == nil {
		// No line cache and no placement: always a local miss.
		p.count(cMisses, 1, nil)
		acc.burn(c.LoadPenalty)
		return
	}
	line := off >> lineShift
	if acc.touch(p.id, line) {
		acc.sink += spin(c.HitPenalty)
		return
	}
	// Next-line prefetch: hardware detects sequential scans and pulls
	// the following line, the effect the paper leans on to make
	// unsorted in-node key scans cheap (§4.4).
	acc.touch(p.id, line+1)
	acc.led[cMisses]++
	total := c.LoadPenalty
	if c.RemotePenalty > 0 && acc.Node >= 0 {
		if owner := p.nodeOf(off); owner >= 0 && owner != acc.Node {
			total += c.RemotePenalty
			acc.led[cRemoteOps]++
		}
	}
	acc.sink += spin(total)
}

// chargeStore applies the cost model for n stores (or one CAS) by acc to
// words of the one cache line containing off: n store penalties, and the
// line write-allocates into the accessor's line cache — exactly what n
// single-word charges would add up to, since only the first can miss.
// As with chargeLoad, the caller has counted the stores first.
func (p *Pool) chargeStore(off uint64, n int, acc *Acc) {
	c := p.cost
	if c == nil {
		return
	}
	total := n * c.StorePenalty
	if acc != nil && !acc.touch(p.id, off>>lineShift) && c.RemotePenalty > 0 && acc.Node >= 0 {
		if owner := p.nodeOf(off); owner >= 0 && owner != acc.Node {
			total += c.RemotePenalty
			acc.led[cRemoteOps]++
		}
	}
	acc.burn(total)
}

// chargeFlush applies the cost model for one round of n line flushes:
// the flush penalty per line, raised by the contention surcharge for
// every other flusher in the pool at the same moment.
func (p *Pool) chargeFlush(n int, acc *Acc) {
	c := p.cost
	if c == nil || (c.FlushPenalty <= 0 && c.FlushContention <= 0) {
		return
	}
	depth := p.flushers.Add(1)
	extra := 0
	if depth > 1 {
		extra = int(depth-1) * c.FlushContention
	}
	acc.burn((c.FlushPenalty + extra) * n)
	p.flushers.Add(-1)
}

func (p *Pool) shard(line uint64) *shadowShard {
	return &p.shards[line&(shardCount-1)]
}

// captureLine records the current (persisted) contents of the line if it
// has no shadow entry yet. Caller must hold the shard lock.
func (p *Pool) captureLine(sh *shadowShard, line uint64) {
	if _, ok := sh.lines[line]; ok {
		return
	}
	var buf [LineWords]uint64
	base := line << lineShift
	for i := 0; i < LineWords; i++ {
		buf[i] = atomic.LoadUint64(&p.words[base+uint64(i)])
	}
	sh.lines[line] = &buf
}

// Load atomically reads the word at off. acc identifies the accessing
// worker for cost accounting (nil for administrative accesses).
func (p *Pool) Load(off uint64, acc *Acc) uint64 {
	p.step()
	if acc != nil && acc.pool == p && acc.pending < ledgerFlushEvents {
		acc.pending++
		acc.led[cLoads]++
	} else {
		p.countSlow(cLoads, 1, acc)
	}
	p.chargeLoad(off, acc)
	return atomic.LoadUint64(&p.words[off])
}

// Store atomically writes v to the word at off. The write lands in the
// volatile domain: it is lost by a Crash until the covering line is
// persisted.
func (p *Pool) Store(off uint64, v uint64, acc *Acc) {
	p.step()
	p.count(cStores, 1, acc)
	p.chargeStore(off, 1, acc)
	if p.tracking.Load() {
		line := off >> lineShift
		sh := p.shard(line)
		sh.mu.Lock()
		p.captureLine(sh, line)
		atomic.StoreUint64(&p.words[off], v)
		sh.mu.Unlock()
		return
	}
	atomic.StoreUint64(&p.words[off], v)
}

// CAS performs an atomic compare-and-swap on the word at off.
func (p *Pool) CAS(off uint64, old, new uint64, acc *Acc) bool {
	p.step()
	p.count(cCASes, 1, acc)
	p.chargeStore(off, 1, acc)
	if p.tracking.Load() {
		line := off >> lineShift
		sh := p.shard(line)
		sh.mu.Lock()
		p.captureLine(sh, line)
		ok := atomic.CompareAndSwapUint64(&p.words[off], old, new)
		sh.mu.Unlock()
		return ok
	}
	return atomic.CompareAndSwapUint64(&p.words[off], old, new)
}

// Add atomically adds delta to the word at off and returns the new value.
func (p *Pool) Add(off uint64, delta uint64, acc *Acc) uint64 {
	p.step()
	p.count(cStores, 1, acc)
	p.chargeStore(off, 1, acc)
	if p.tracking.Load() {
		line := off >> lineShift
		sh := p.shard(line)
		sh.mu.Lock()
		p.captureLine(sh, line)
		v := atomic.AddUint64(&p.words[off], delta)
		sh.mu.Unlock()
		return v
	}
	return atomic.AddUint64(&p.words[off], delta)
}

// Persist flushes the cache lines covering words [off, off+n) to the
// persistent domain and issues a fence, the analogue of
// CLWB...CLWB; SFENCE in the paper's Persist primitive (Function 1).
func (p *Pool) Persist(off, n uint64, acc *Acc) {
	p.step()
	if n == 0 {
		n = 1
	}
	first := off >> lineShift
	last := (off + n - 1) >> lineShift
	p.chargeFlush(int(last-first+1), acc)
	p.count(cFlushes, last-first+1, acc)
	if p.tracking.Load() {
		for line := first; line <= last; line++ {
			sh := p.shard(line)
			sh.mu.Lock()
			delete(sh.lines, line)
			sh.mu.Unlock()
		}
	}
	p.Fence(acc)
}

// persistLineKey packs (shard, line) into one sortable word so that a
// batch can be ordered shard-major with a single integer sort. Line
// indices fit in 40 bits (pool images cap at 2^40 words).
const persistLineMask = 1<<40 - 1

// PersistLines flushes the given cache lines (line indices, not word
// offsets) and issues one trailing fence: the multi-line analogue of
// Persist, CLWB;CLWB;...;SFENCE. Lines may repeat and arrive in any
// order; they are sorted shard-major and deduplicated, each shadow shard
// lock is taken once per batch instead of once per line, and the cost
// model charges one contention round for the whole batch. The slice is
// used as scratch and comes back reordered.
func (p *Pool) PersistLines(lines []uint64, acc *Acc) {
	if len(lines) == 0 {
		return
	}
	p.step()
	for i, ln := range lines {
		lines[i] = (ln&(shardCount-1))<<40 | ln
	}
	slices.Sort(lines)
	uniq := lines[:1]
	for _, k := range lines[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	p.chargeFlush(len(uniq), acc)
	p.count(cFlushes, uint64(len(uniq)), acc)
	tracking := p.tracking.Load()
	for i := 0; i < len(uniq); {
		shard := uniq[i] >> 40
		if !tracking {
			for i < len(uniq) && uniq[i]>>40 == shard {
				i++
			}
			continue
		}
		sh := &p.shards[shard]
		sh.mu.Lock()
		for i < len(uniq) && uniq[i]>>40 == shard {
			delete(sh.lines, uniq[i]&persistLineMask)
			i++
		}
		sh.mu.Unlock()
	}
	p.Fence(acc)
}

// Batch accumulates the cache lines touched by a group of stores so they
// can be flushed with one PersistLines call — one flush round, one shard
// visit per shard, one trailing fence — instead of a Persist-with-fence
// per store. A Batch belongs to one worker and covers one pool at a time;
// adding a range from a different pool flushes what is pending first.
type Batch struct {
	pool  *Pool
	lines []uint64
}

// Add registers words [off, off+n) of pool p for flushing. acc is used
// only if a pending batch against a different pool must be flushed.
func (b *Batch) Add(p *Pool, off, n uint64, acc *Acc) {
	if b.pool != p && b.pool != nil {
		b.Flush(acc)
	}
	b.pool = p
	if n == 0 {
		n = 1
	}
	for line, last := off>>lineShift, (off+n-1)>>lineShift; line <= last; line++ {
		b.lines = append(b.lines, line)
	}
}

// Flush persists every registered line with a single trailing fence and
// resets the batch for reuse. A no-op on an empty batch.
func (b *Batch) Flush(acc *Acc) {
	if b.pool != nil && len(b.lines) > 0 {
		b.pool.PersistLines(b.lines, acc)
	}
	b.pool = nil
	b.lines = b.lines[:0]
}

// Fence issues a store fence (SFENCE analogue). In the simulation
// ordering is already sequentially consistent, so this only does cost and
// stats accounting; it exists so algorithm code reads like the paper's.
// A fence is also where the accessor's ledger is published: whatever an
// operation made durable is counted by the time it is durable.
func (p *Pool) Fence(acc *Acc) {
	p.count(cFences, 1, acc)
	h := p.fenceObs.Load()
	if h != nil && acc != nil {
		acc.fenceTick++
		if acc.fenceTick%fenceSample != 0 {
			h = nil
		}
	}
	var start int64
	if h != nil {
		start = hist.Now()
	}
	if p.cost != nil {
		acc.burn(p.cost.FencePenalty)
	}
	if h != nil {
		h.RecordSinceNano(start)
	}
	acc.Publish()
}

// fenceSample is the fence-wait observation rate: 1 in fenceSample
// fences is timed. A fence costs a handful of nanoseconds while a clock
// read costs tens, so timing every fence would distort the very path
// being observed; sampling keeps the distribution (fences from one call
// site are statistically alike) at ~1/16 of the measurement cost.
const fenceSample = 16

// SetFenceObserver installs a histogram that receives the wall-clock
// duration of sampled Fences — 1 in fenceSample per accessor, every
// fence for accessor-less (administrative) callers. Nil removes it. The
// unsampled fence path pays one atomic pointer load and a local counter
// increment. Safe to install or remove while workers are running.
func (p *Pool) SetFenceObserver(h *hist.Histogram) {
	p.fenceObs.Store(h)
}

// EnableTracking switches the pool into crash-tracking mode. It must be
// called while no other goroutines are accessing the pool.
func (p *Pool) EnableTracking() { p.tracking.Store(true) }

// DisableTracking leaves crash-tracking mode, dropping all shadow state
// (every outstanding write is considered persisted). It must be called
// while no other goroutines are accessing the pool.
func (p *Pool) DisableTracking() {
	p.tracking.Store(false)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		clear(sh.lines)
		sh.mu.Unlock()
	}
}

// Tracking reports whether crash-tracking mode is on.
func (p *Pool) Tracking() bool { return p.tracking.Load() }

// DirtyLines returns the number of cache lines with unflushed writes.
// Only meaningful in tracking mode.
func (p *Pool) DirtyLines() int {
	total := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		total += len(sh.lines)
		sh.mu.Unlock()
	}
	return total
}

// Crash simulates a power failure: every cache line that was modified but
// not persisted is reverted to its last-persisted contents. The pool must
// be in tracking mode and quiesced (no concurrent accessors); the caller
// is responsible for abandoning all in-flight operations first, exactly
// as a real power failure abandons all running threads.
func (p *Pool) Crash() int {
	reverted := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for line, buf := range sh.lines {
			base := line << lineShift
			for w := 0; w < LineWords; w++ {
				atomic.StoreUint64(&p.words[base+uint64(w)], buf[w])
			}
			reverted++
		}
		clear(sh.lines)
		sh.mu.Unlock()
	}
	return reverted
}

// poolImageMagic identifies a serialized pool image.
const poolImageMagic = 0x55_50_53_4C_504D_454D // "UPSLPMEM"

// WriteTo serializes the pool's durable image (dirty lines are written as
// their last-persisted contents). It implements io.WriterTo.
func (p *Pool) WriteTo(w io.Writer) (int64, error) {
	var hdr [4 * 8]byte
	binary.LittleEndian.PutUint64(hdr[0:], poolImageMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.id))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(p.words)))
	binary.LittleEndian.PutUint64(hdr[24:], 0)
	n, err := w.Write(hdr[:])
	written := int64(n)
	if err != nil {
		return written, err
	}
	buf := make([]byte, LineWords*8)
	for line := uint64(0); line < uint64(len(p.words))>>lineShift; line++ {
		src := p.durableLine(line)
		for i := 0; i < LineWords; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], src[i])
		}
		n, err = w.Write(buf)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// durableLine returns the persisted contents of a cache line.
func (p *Pool) durableLine(line uint64) [LineWords]uint64 {
	var out [LineWords]uint64
	sh := p.shard(line)
	sh.mu.Lock()
	if buf, ok := sh.lines[line]; ok {
		out = *buf
		sh.mu.Unlock()
		return out
	}
	sh.mu.Unlock()
	base := line << lineShift
	for i := 0; i < LineWords; i++ {
		out[i] = atomic.LoadUint64(&p.words[base+uint64(i)])
	}
	return out
}

// readPieceWords is how many words ReadPool reads and decodes at a time
// (1 MiB).
const readPieceWords = 1 << 17

// ReadPool deserializes a pool image written by WriteTo. The returned
// pool is in fast mode with the given cost model and placement. The
// header's word count is not trusted with an allocation: the body is
// read in bounded pieces and the pool grows to the lines actually read,
// so a forged size costs no more memory than the bytes behind it.
func ReadPool(r io.Reader, homeNode, stripeNodes int, cost *CostModel) (*Pool, error) {
	var hdr [4 * 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != poolImageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	id, words := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	if id > math.MaxUint16 || binary.LittleEndian.Uint64(hdr[24:]) != 0 {
		return nil, fmt.Errorf("%w: bad header", ErrBadImage)
	}
	if words < LineWords || words%LineWords != 0 || words > 1<<40 {
		return nil, fmt.Errorf("%w: bad size %d", ErrBadImage, words)
	}
	var body []uint64
	buf := make([]byte, 8*min(words, readPieceWords))
	for n := uint64(0); n < words; n += readPieceWords {
		k := min(words-n, readPieceWords)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, fmt.Errorf("%w: truncated at word %d: %v", ErrBadImage, n, err)
		}
		if n+k > uint64(cap(body)) {
			body = append(make([]uint64, 0, min(words, max(2*n, n+k))), body...)
		}
		for i := uint64(0); i < k; i++ {
			body = append(body, binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return newPool(Config{ID: uint16(id), HomeNode: homeNode, StripeNodes: stripeNodes, Cost: cost}, body), nil
}

// CheckRange validates that [off, off+n) lies within the pool.
func (p *Pool) CheckRange(off, n uint64) error {
	if off >= uint64(len(p.words)) || n > uint64(len(p.words))-off {
		return fmt.Errorf("%w: off=%d n=%d size=%d", ErrOutOfRange, off, n, len(p.words))
	}
	return nil
}
