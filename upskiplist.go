// Package upskiplist is a Go reproduction of UPSkipList — the scalable,
// recoverable, persistent-memory-resident skip list of "A Scalable
// Recoverable Skip List for Persistent Memory" (SPAA 2021).
//
// A Store bundles one or more simulated persistent-memory pools, the
// extended Region-ID-in-Value (RIV) address space, the failure-free
// epoch clock, the recoverable block allocator, and the skip list
// itself. All durable state lives in the pools; the Store handle is
// volatile and can be re-created over the same pools at any time, which
// is exactly what post-crash recovery amounts to (constant time in the
// structure size).
//
// With Options.Shards > 1 the store splits the keyspace across that many
// independent skip lists ("shards"), each with its own pool, allocator
// and epoch clock. Shard pools are placed NUMA-locally under the PerNode
// placement (shard i's pool lives whole on node i mod NUMANodes), point
// operations route by key to the owning shard, and range scans merge the
// per-shard bottom levels back into one ascending key stream. Sharding
// is a volatile routing layer over unchanged per-shard engines: each
// shard recovers exactly like a single-list store.
//
// Values are variable-size byte strings. An 8-byte value is the node's
// value word itself, as in the paper (unless that word would read as a
// slab reference or the tombstone); any other value is stored
// out-of-place in a slab-class arena carved from the same pools
// (internal/slab), and the node value word holds a packed reference
// that is published with a single CAS after the bytes are durable.
// Either way recovery sees the complete old or complete new value. The
// thin PutU64/GetU64 helpers store a uint64 as its 8 little-endian
// bytes.
//
// Quick start:
//
//	st, _ := upskiplist.Create(upskiplist.DefaultOptions())
//	w := st.NewWorker(0)
//	w.Put(42, []byte("hello"))
//	v, ok := w.Get(42) // []byte, valid until w's next operation
//
// Crash recovery:
//
//	st.EnableCrashTracking()
//	... workload, then power failure ...
//	st.SimulateCrash()          // unflushed cache lines are lost
//	st2, _ := st.Reopen()       // epoch advances; repairs are deferred
//
// Group-committed batches (one trailing fence per shard per batch
// instead of one fence per operation):
//
//	res := w.ApplyBatch([]upskiplist.Op{
//		{Kind: upskiplist.OpInsert, Key: 7, Value: 70},
//		{Kind: upskiplist.OpGet, Key: 7},
//	})
//
// Keys must lie in [upskiplist.KeyMin, upskiplist.KeyMax].
package upskiplist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/metrics"
	"upskiplist/internal/numa"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/slab"
)

// Re-exported key/value sentinels.
const (
	KeyMin    = skiplist.KeyMin
	KeyMax    = skiplist.KeyMax
	Tombstone = skiplist.Tombstone
)

// MaxValueLen is the largest value Put accepts (1 MiB). The slab chain
// encoding goes further, but a put this large already spans hundreds of
// chunks; anything bigger belongs in a blob store, not an index.
const MaxValueLen = 1 << 20

// ErrValueTooLarge reports a Put whose value exceeds MaxValueLen (or
// the server's configured bound). Wrap-tested with errors.Is.
var ErrValueTooLarge = errors.New("upskiplist: value exceeds the maximum value length")

// ErrBadGeometry reports Options whose node geometry cannot be packed
// into the on-PMEM node layout: the meta word gives the sorted-prefix
// length 16 bits and the height 8, so KeysPerNode is capped at
// skiplist.MaxKeysPerNode and MaxHeight at skiplist.MaxHeight.
// Wrap-tested with errors.Is.
var ErrBadGeometry = errors.New("upskiplist: invalid node geometry")

// ErrBadDump reports a directory Load cannot restore: a sidecar that is
// not a well-formed v4 line (dumps of older revisions included), options
// in it that no Save could have written, or a pairs stream that is
// truncated, oversize, out of order (then also wrapping
// skiplist.ErrUnsorted) or too large for the geometry the sidecar
// declares. Nothing is left behind: a failed Load returns no store.
// Wrap-tested with errors.Is.
var ErrBadDump = errors.New("upskiplist: not a loadable dump")

// Placement selects the pool layout (see the paper's §5.2.3 comparison).
type Placement = numa.Placement

// Placement values.
const (
	SinglePool = numa.SinglePool
	Striped    = numa.Striped
	PerNode    = numa.PerNode
)

// Options configures a Store: persistent geometry, placement, sizing,
// and which subsystems run. The read path has no options — every store
// runs the hint cache, block search, prefetching and sparse towers;
// experiments reach their ablations through Store.SetTuning.
type Options struct {
	// MaxHeight and KeysPerNode mirror the paper's parameters (32 levels,
	// 256 keys per node in the evaluation; smaller defaults here).
	MaxHeight   int
	KeysPerNode int
	// SortedNodes enables sorted-on-split nodes with binary-search
	// lookups (the paper's proposed optimization).
	SortedNodes bool

	// RecoveryParallelism bounds the worker goroutines Reopen and Load
	// fan recovery out across: shards recover concurrently, and any
	// leftover budget splits each shard's allocator kind scans and slab
	// sweep page scans into parallel partitions. 0 means GOMAXPROCS; 1
	// recovers serially. Never persisted, never affects the recovered
	// state — only time to ready.
	RecoveryParallelism int

	// Shards splits the keyspace across this many independent skip lists
	// (0 or 1 = today's single-list store). Routing is by key modulo the
	// shard count, so dense keyspaces spread evenly; each shard has its
	// own pool (sized PoolWords), allocator and epoch clock, and under
	// PerNode placement shard i's pool is placed whole on NUMA node
	// i mod NUMANodes. Sharding is volatile configuration the same way
	// pool geometry is: a store must be reopened with the shard count it
	// was created with (Save/Load records it).
	Shards int

	// NUMANodes is the simulated socket count; Placement selects
	// single-pool, striped, or one-pool-per-node layouts.
	NUMANodes int
	Placement Placement

	// PoolWords is the size of each pool in 64-bit words.
	PoolWords uint64
	// ChunkWords, MaxChunks, NumArenas, NumThreads size the allocator
	// (coarse chunks, free-list arenas, per-thread log slots).
	ChunkWords uint64
	MaxChunks  uint64
	NumArenas  int
	NumThreads int
	// Preallocate carves half of MaxChunks into free node blocks at
	// Create (the paper's allocation mode 1, §4.3.2) instead of
	// provisioning chunks on demand as the structure grows (mode 2, the
	// default). The other half stays unclaimed for the value arena, which
	// takes its space as whole chunks.
	Preallocate bool

	// OnlineReclaim starts a background epoch-based reclaimer per shard
	// (see EnableOnlineReclaim): fully-tombstoned nodes are retired and
	// their blocks recycled concurrently with the workload, instead of
	// only by the quiesced Compact. Overwritten value chunks free by
	// grace period either way, and every store can open snapshots.
	// Volatile configuration: not persisted by Save — a Load-ed store
	// needs an explicit EnableOnlineReclaim call.
	OnlineReclaim bool
	// ReclaimInterval is the reclaimer's cycle period (0 = 200µs);
	// ReclaimScanNodes bounds how many bottom-level nodes each cycle
	// examines (0 = 64). Together they rate-limit the sweeper.
	ReclaimInterval  time.Duration
	ReclaimScanNodes int

	// Cost enables the synthetic PMEM access-cost model (benchmarks).
	Cost *pmem.CostModel
}

// DefaultOptions returns a laptop-scale configuration.
func DefaultOptions() Options {
	return Options{
		MaxHeight:   16,
		KeysPerNode: 16,
		NUMANodes:   1,
		Placement:   SinglePool,
		PoolWords:   1 << 22,
		ChunkWords:  1 << 14,
		MaxChunks:   1024,
		NumArenas:   4,
		NumThreads:  128,
	}
}

func (o *Options) normalize() error {
	if o.MaxHeight == 0 {
		o.MaxHeight = 16
	}
	if o.KeysPerNode == 0 {
		o.KeysPerNode = 16
	}
	if o.MaxHeight < 1 || o.MaxHeight > skiplist.MaxHeight {
		return fmt.Errorf("%w: MaxHeight %d outside [1, %d]", ErrBadGeometry, o.MaxHeight, skiplist.MaxHeight)
	}
	if o.KeysPerNode < 1 || o.KeysPerNode > skiplist.MaxKeysPerNode {
		return fmt.Errorf("%w: KeysPerNode %d outside [1, %d] (meta word keeps the sorted prefix in 16 bits)", ErrBadGeometry, o.KeysPerNode, skiplist.MaxKeysPerNode)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.NUMANodes <= 0 {
		o.NUMANodes = 1
	}
	if o.Placement == PerNode && o.NUMANodes < 2 {
		return errors.New("upskiplist: PerNode placement needs >= 2 NUMA nodes")
	}
	if o.PoolWords == 0 {
		o.PoolWords = 1 << 22
	}
	if o.ChunkWords == 0 {
		o.ChunkWords = 1 << 14
	}
	if o.MaxChunks == 0 {
		o.MaxChunks = 1024
	}
	if o.NumArenas == 0 {
		o.NumArenas = 4
	}
	if o.NumThreads == 0 {
		o.NumThreads = 128
	}
	return nil
}

func (o Options) allocConfig() alloc.Config {
	return alloc.Config{
		ChunkWords:  o.ChunkWords,
		MaxChunks:   o.MaxChunks,
		BlockWords:  skiplist.BlockWordsFor(o.skipConfig()),
		NumArenas:   o.NumArenas,
		NumLogs:     o.NumThreads,
		RootWords:   64,
		Preallocate: o.Preallocate,
	}
}

func (o Options) skipConfig() skiplist.Config {
	return skiplist.Config{MaxHeight: o.MaxHeight, KeysPerNode: o.KeysPerNode, SortedNodes: o.SortedNodes}
}

// engine is one complete single-list store: pools, RIV address space,
// epoch clock, allocator and skip list. An unsharded Store holds exactly
// one; a sharded Store holds Options.Shards of them, each owning a
// disjoint slice of the keyspace. Engines share nothing — separate
// address spaces, separate clocks, separate allocation logs — which is
// what lets each one recover independently and exactly like the
// single-list store of earlier revisions.
type engine struct {
	pools []*pmem.Pool
	space *riv.Space
	clock *epoch.Clock
	alloc *alloc.Allocator
	list  *skiplist.SkipList
	// vals is the shard's slab-class value arena, home of every value
	// that is not an inline 8 bytes: such a value's word in the list is
	// the packed slab.Ref of the chunk holding its bytes (see encodeValue).
	vals *slab.Arena
}

// decodeValue materializes one node value word: a slab reference
// resolves to its stored bytes, any other word is an inline value — its
// own 8 little-endian bytes. The inverse of encodeValue.
func (e *engine) decodeValue(w uint64, dst []byte, acc *pmem.Acc) []byte {
	if slab.IsRef(w) {
		return e.vals.Get(slab.FromWord(w), dst, acc)
	}
	return binary.LittleEndian.AppendUint64(dst, w)
}

// encodeValue builds the node value word for val — the one place a value
// becomes a word. An 8-byte value whose word is neither ref-shaped nor
// Tombstone IS the word: nothing is allocated and nothing has to be
// durable ahead of the publish. Anything else goes to a fresh slab chunk
// and the word is its ref; flush is slab.Arena.Put's (nil: the chunk is
// persisted before return; otherwise the caller drains flush before it
// publishes the word).
func (e *engine) encodeValue(ctx *exec.Ctx, val []byte, flush *pmem.Batch) (uint64, error) {
	if len(val) == 8 {
		if w := binary.LittleEndian.Uint64(val); !slab.IsRef(w) && w != Tombstone {
			return w, nil
		}
	}
	ref, err := e.vals.Put(ctx, val, flush)
	return ref.Word(), err
}

// retireWord retires the chunk behind a value word that has durably left
// the structure (or never entered it); inline words own nothing.
func (e *engine) retireWord(w uint64) {
	if slab.IsRef(w) {
		e.vals.Retire(slab.FromWord(w))
	}
}

// attachVals opens the shard's slab arena and wires it to the list:
// limbo batches take their grace-period eras from the list's domain
// (so retired chunks free whether or not the node reclaimer runs), and
// the list's iterators decode value words through the arena. With sweep
// set (reopen/load over pre-existing pools) the startup crash-leak scan
// runs: chunks whose publishing node word never landed are relinked, and
// slab pages orphaned mid-grow go back to the block allocator. scanPar
// is the sweep's intra-shard page-scan parallelism (<= 1 serial).
func (e *engine) attachVals(sweep bool, scanPar int) error {
	ctx := exec.NewCtx(0, 0)
	defer ctx.Mem.Publish()
	ar, err := slab.Attach(e.alloc, ctx)
	if err != nil {
		return err
	}
	e.vals = ar
	ar.SetDomain(e.list.Domain())
	e.list.SetValueDecoder(e.decodeValue)
	if sweep {
		ar.SetSweepParallelism(scanPar)
		ar.Sweep(ctx, func(emit func(uint64)) { e.list.ForEachValueWord(ctx, emit) })
	}
	return nil
}

// put is the engine body of Worker.Put: encode the value (an out-of-line
// one is written to a fresh slab chunk and persisted first), then publish
// the word via the node's value-word CAS — the paper's Function 14, one
// persist. A crash before the CAS leaks at most the chunk (the startup
// sweep reclaims it); a reader never observes a torn value because the
// node word flips atomically from old to new. The previous value's bytes
// are appended to dst; if it lived in a chunk, that retires through the
// epoch limbo so concurrent readers and open snapshots keep a stable
// view.
func (e *engine) put(ctx *exec.Ctx, key uint64, val, dst []byte) ([]byte, bool, error) {
	if len(val) > MaxValueLen {
		return dst, false, ErrValueTooLarge
	}
	e.list.Pin(ctx)
	defer e.list.Unpin(ctx)
	word, err := e.encodeValue(ctx, val, nil)
	if err != nil {
		return dst, false, err
	}
	oldw, existed, err := e.list.Insert(ctx, key, word)
	if err != nil {
		// A chunk was written but never published; hand it straight back
		// rather than leaving it for the crash sweep.
		e.retireWord(word)
		return dst, false, err
	}
	if existed {
		dst = e.decodeValue(oldw, dst, ctx.Mem)
		e.retireWord(oldw)
	}
	return dst, existed, nil
}

// get appends the value stored under key to dst. The era pin spans both
// the node-word read and the chunk decode, so a concurrent overwrite
// cannot free the chunk out from under the copy.
func (e *engine) get(ctx *exec.Ctx, key uint64, dst []byte) ([]byte, bool) {
	e.list.Pin(ctx)
	defer e.list.Unpin(ctx)
	w, ok := e.list.Get(ctx, key)
	if !ok {
		return dst, false
	}
	return e.decodeValue(w, dst, ctx.Mem), true
}

// remove tombstones key, appending the removed bytes to dst and retiring
// the value's chunk. The list persists the tombstone before returning,
// so the retire happens strictly after the word that named the chunk
// durably moved on.
func (e *engine) remove(ctx *exec.Ctx, key uint64, dst []byte) ([]byte, bool, error) {
	e.list.Pin(ctx)
	defer e.list.Unpin(ctx)
	w, ok, err := e.list.Remove(ctx, key)
	if err != nil || !ok {
		return dst, ok, err
	}
	dst = e.decodeValue(w, dst, ctx.Mem)
	e.retireWord(w)
	return dst, true, nil
}

// Store is a handle onto a persistent skip list (or a keyspace-sharded
// group of them) and its pools.
type Store struct {
	opts   Options
	topo   numa.Topology
	shards []*engine
	// tuning is what SetTuning last applied, kept so Reopen hands the
	// same tuning to the lists it opens.
	tuning skiplist.Tuning
	// met is the optional metrics sink (see EnableMetrics). Nil when
	// observability is off, so the hot-path cost of "metrics disabled"
	// is one atomic pointer load.
	met atomic.Pointer[storeMetrics]

	// MVCC snapshot state (snapshot.go). snapBits allocates the reserved
	// reader thread-ID slots above Options.NumThreads, one per open Snap;
	// snapOpened holds each set bit's open time for the age gauge.
	snapMu     sync.Mutex
	snapBits   uint64
	snapOpened [epoch.NumPins]time.Time

	// recovery records what the Reopen/Load that produced this handle
	// did (recovery.go). Zero for stores built by Create.
	recovery RecoveryStats
}

// newShardPools builds the pool set for one shard. An unsharded store
// keeps the original layouts (one pool per node under PerNode, one
// striped pool, or one plain pool); a sharded store gives every shard a
// single pool whose NUMA placement derives from the shard index.
func newShardPools(opts Options, topo numa.Topology, shard int) ([]*pmem.Pool, error) {
	if opts.Shards > 1 {
		home, stripe := -1, 0
		switch opts.Placement {
		case PerNode:
			home = topo.ShardNode(shard)
		case Striped:
			stripe = opts.NUMANodes
		}
		p, err := pmem.NewPool(pmem.Config{
			ID: 0, Words: opts.PoolWords, HomeNode: home,
			StripeNodes: stripe, Cost: opts.Cost,
		})
		if err != nil {
			return nil, err
		}
		return []*pmem.Pool{p}, nil
	}
	var pools []*pmem.Pool
	switch opts.Placement {
	case PerNode:
		for n := 0; n < opts.NUMANodes; n++ {
			p, err := pmem.NewPool(pmem.Config{
				ID: uint16(n), Words: opts.PoolWords, HomeNode: n, Cost: opts.Cost,
			})
			if err != nil {
				return nil, err
			}
			pools = append(pools, p)
		}
	case Striped:
		p, err := pmem.NewPool(pmem.Config{
			ID: 0, Words: opts.PoolWords, HomeNode: -1,
			StripeNodes: opts.NUMANodes, Cost: opts.Cost,
		})
		if err != nil {
			return nil, err
		}
		pools = append(pools, p)
	default:
		p, err := pmem.NewPool(pmem.Config{ID: 0, Words: opts.PoolWords, HomeNode: -1, Cost: opts.Cost})
		if err != nil {
			return nil, err
		}
		pools = append(pools, p)
	}
	return pools, nil
}

// Create builds a fresh store.
func Create(opts Options) (*Store, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	st := &Store{opts: opts, topo: numa.Topology{Nodes: opts.NUMANodes}}
	acfg := opts.allocConfig()
	for si := 0; si < opts.Shards; si++ {
		pools, err := newShardPools(opts, st.topo, si)
		if err != nil {
			return nil, err
		}
		var pas []*alloc.PoolAllocator
		for _, p := range pools {
			pa, err := alloc.Format(p, acfg)
			if err != nil {
				return nil, fmt.Errorf("formatting shard %d pool %d: %w", si, p.ID(), err)
			}
			pas = append(pas, pa)
		}
		e, err := assembleEngine(opts, pools, pas, false)
		if err != nil {
			return nil, err
		}
		list, err := skiplist.Create(e.alloc, opts.skipConfig())
		if err != nil {
			return nil, err
		}
		e.list = list
		if err := e.attachVals(false, 1); err != nil {
			return nil, err
		}
		st.shards = append(st.shards, e)
	}
	if opts.OnlineReclaim {
		st.EnableOnlineReclaim()
	}
	return st, nil
}

// assembleEngine wires space/clock/allocator over one shard's formatted
// pools.
func assembleEngine(opts Options, pools []*pmem.Pool, pas []*alloc.PoolAllocator, afterRestart bool) (*engine, error) {
	space := riv.NewSpace()
	for _, p := range pools {
		space.AddPool(p)
	}
	clock := epoch.Attach(pools[0], alloc.EpochOff)
	if afterRestart {
		// A restart is a crash boundary: all prior failure-free work
		// belongs to a dead epoch (§4.1.3). This is the entire
		// structure-independent part of recovery.
		clock.Advance()
	} else {
		clock.InitIfZero()
	}
	a := alloc.New(space, clock)
	for i, pa := range pas {
		// Node-local allocation only applies to the unsharded PerNode
		// layout, where one engine spans one pool per node. A sharded
		// engine owns a single pool (already placed by shard index), so it
		// is attached unplaced and serves workers from every node.
		node := -1
		if opts.Shards == 1 && opts.Placement == PerNode {
			node = i
		}
		a.AttachPool(pa, node)
	}
	return &engine{pools: pools, space: space, clock: clock, alloc: a}, nil
}

// Reopen simulates a process restart (or post-crash recovery) over the
// same pools: a brand-new handle is assembled, each shard's failure-free
// epoch is advanced, and the old handle must no longer be used. Per the
// paper, this is all the recovery there is — repairs happen lazily
// during subsequent operations. Shards recover concurrently under the
// Options.RecoveryParallelism budget (see recovery.go).
func (s *Store) Reopen() (*Store, error) {
	// The old handle's reclaimers run against the same pools the new
	// handle will own; stop them first (waits for their goroutines).
	s.DisableOnlineReclaim()
	st := &Store{opts: s.opts, topo: s.topo, tuning: s.tuning}
	n := len(s.shards)
	engines := make([]*engine, n)
	recs := make([]shardRecovery, n)
	par := normalizeRecoveryParallelism(s.opts.RecoveryParallelism)
	t0 := time.Now()
	err := recoverShards(n, par, func(i, scanPar int) error {
		e, err := recoverShard(s.opts, s.tuning, s.shards[i].pools, scanPar, &recs[i])
		engines[i] = e
		return err
	})
	if err != nil {
		return nil, err
	}
	st.shards = engines
	st.recovery = summarizeRecovery(par, recs, time.Since(t0))
	if s.opts.OnlineReclaim {
		st.EnableOnlineReclaim()
	}
	return st, nil
}

// Options returns the store's configuration.
func (s *Store) Options() Options { return s.opts }

// Pools exposes the underlying pools of every shard, in shard order
// (stats, crash control).
func (s *Store) Pools() []*pmem.Pool {
	var out []*pmem.Pool
	for _, e := range s.shards {
		out = append(out, e.pools...)
	}
	return out
}

// NumShards returns the number of keyspace shards (1 for an unsharded
// store).
func (s *Store) NumShards() int { return len(s.shards) }

// ShardList exposes shard i's skip list (tests, invariant checks).
func (s *Store) ShardList(i int) *skiplist.SkipList { return s.shards[i].list }

// ShardPools exposes shard i's pools.
func (s *Store) ShardPools(i int) []*pmem.Pool { return s.shards[i].pools }

// shardOf routes a key to its owning shard. Keys are interleaved modulo
// the shard count rather than range-partitioned: YCSB-style dense
// keyspaces (keys 1..N) then load every shard evenly, where contiguous
// range splits of the full uint64 domain would send every dense key to
// shard 0. Merged scans do not care — merging N sorted streams restores
// ascending order for any disjoint partition. Out-of-range keys map to
// shard 0, whose engine rejects them with the usual range errors.
func (s *Store) shardOf(key uint64) int {
	n := len(s.shards)
	if n == 1 || key < KeyMin || key > KeyMax {
		return 0
	}
	return int((key - KeyMin) % uint64(n))
}

// EnableCrashTracking switches every pool of every shard into
// crash-tracking mode. Must be called quiesced; background reclaimers
// are held at a cycle boundary for the switch.
func (s *Store) EnableCrashTracking() {
	s.PauseReclaim()
	for _, e := range s.shards {
		for _, p := range e.pools {
			p.EnableTracking()
		}
	}
	s.ResumeReclaim()
}

// DisableCrashTracking leaves crash-tracking mode (all pending writes
// count as persisted).
func (s *Store) DisableCrashTracking() {
	s.PauseReclaim()
	for _, e := range s.shards {
		for _, p := range e.pools {
			p.DisableTracking()
		}
	}
	s.ResumeReclaim()
}

// SimulateCrash discards every unflushed cache line in every pool of
// every shard, modelling a power failure of the whole machine. The store
// must be quiesced: all workers abandoned or stopped. Returns the number
// of lines reverted.
func (s *Store) SimulateCrash() int {
	// Reclaimers are paused — not resumed — so nothing touches the
	// reverted pools afterwards; the only valid next step is Reopen,
	// which stops them for good. A reclaimer goroutine already killed by
	// a crash injector (its thread "died at the failure") pauses cleanly.
	s.PauseReclaim()
	n := 0
	for _, e := range s.shards {
		for _, p := range e.pools {
			n += p.Crash()
		}
	}
	return n
}

// shardSalt decorrelates per-shard eviction draws in SimulateCrashPartial
// while leaving shard 0 (and so every unsharded store) with exactly the
// pre-sharding seed derivation.
func shardSalt(shard int) uint64 {
	return uint64(shard) * 0x9E3779B97F4A7C15
}

// SimulateCrashPartial is SimulateCrash with cache-eviction modelling:
// each unflushed line independently survives (as if evicted to the
// persistence domain just before the failure) with probability
// evictProb. Every shard crashes under its own derived seed, so the
// surviving subsets differ per shard as they would across real devices.
// Returns (reverted, survived) line counts.
func (s *Store) SimulateCrashPartial(evictProb float64, seed uint64) (int, int) {
	s.PauseReclaim() // see SimulateCrash
	rev, sur := 0, 0
	for si, e := range s.shards {
		for _, p := range e.pools {
			r, v := p.CrashPartial(evictProb, seed^shardSalt(si)^uint64(p.ID()))
			rev += r
			sur += v
		}
	}
	return rev, sur
}

// SetInjector installs a crash injector on every pool (nil to remove).
func (s *Store) SetInjector(inj pmem.Injector) {
	for _, e := range s.shards {
		for _, p := range e.pools {
			p.SetInjector(inj)
		}
	}
}

// SetTuning applies volatile read-path tuning to every shard's list
// (the ablation seam of experiments and tests; see skiplist.Tuning) and
// remembers it, so the handle a later Reopen returns runs under it too.
// Must be called quiesced; background reclaimers are held at a cycle
// boundary for the switch.
func (s *Store) SetTuning(t skiplist.Tuning) {
	s.PauseReclaim()
	s.tuning = t
	for _, e := range s.shards {
		e.list.SetTuning(t)
	}
	s.ResumeReclaim()
}

// ReclaimOrphans runs the optional quiesced sweep for chunks orphaned by
// a crash during chunk provisioning, across every shard (see
// alloc.ReclaimOrphanChunks).
func (s *Store) ReclaimOrphans() int {
	n := 0
	for _, e := range s.shards {
		ctx := exec.NewCtx(0, 0)
		n += e.alloc.ReclaimOrphanChunks(ctx)
		ctx.Mem.Publish()
	}
	return n
}

// Compact reclaims every node whose keys are all tombstoned, returning
// their blocks to the allocator — the maintenance pass the paper names
// as the next step beyond tombstoning removals (§4.6, §7). Every shard
// is compacted; the store must be quiesced (no concurrent workers). An
// interrupted compaction is completed automatically at the next Reopen.
func (s *Store) Compact() (int, error) {
	// With online reclamation on, hold the reclaimers at a cycle boundary
	// and flush their limbo lists first: a limbo block freed twice (once
	// by Compact's retired-block sweep, once by a resumed reclaimer whose
	// stale limbo entry now names a reallocated node) would corrupt the
	// structure, so the drain empties limbo before Compact looks.
	s.PauseReclaim()
	defer s.ResumeReclaim()
	total := s.drainReclaimQuiesced()
	for _, e := range s.shards {
		n, err := e.list.Compact(exec.NewCtx(0, 0))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Worker is a per-thread handle. Workers are not safe for concurrent use
// by multiple goroutines; create one per goroutine, with distinct IDs.
// Thread IDs must stay below Options.NumThreads and should be reused
// across a crash by the "same" logical thread (the paper's deferred
// allocation recovery keys off thread identity).
type Worker struct {
	s *Store
	// ctxs holds one execution context per shard. Keeping them separate
	// (rather than routing every shard through one context) keeps each
	// shard's traversal state worker-AND-shard-private: the hint cache
	// only ever holds pointers into one shard's address space, the
	// simulated line cache covers one shard's working set, and the
	// deferred-persist group of a batch never straddles address spaces.
	ctxs []*exec.Ctx
	// merged is the reusable scan cursor over every shard's bottom level,
	// built lazily on first Scan.
	merged *skiplist.Merged
	// runs are the reusable per-shard op buffers for ApplyBatch.
	runs [][]skiplist.BatchOp
	// ops counts engine operations issued through this worker (see
	// WorkerStats); owner-goroutine only, like everything else here.
	ops uint64
	// vbuf backs the value slices returned by Put/Get/Remove/View: they
	// alias this buffer and stay valid only until the worker's next
	// operation (copy to keep). Owner-goroutine only.
	vbuf []byte
	// u64b is the scratch encoding buffer for the *U64 compat helpers; a
	// worker field rather than a stack array so the slice passed down
	// never escapes to the heap.
	u64b [8]byte
}

// NewWorker creates a worker pinned (round-robin) to a NUMA node.
func (s *Store) NewWorker(threadID int) *Worker {
	ctxs := make([]*exec.Ctx, len(s.shards))
	for i := range ctxs {
		ctxs[i] = exec.NewCtx(threadID, s.topo.NodeOf(threadID))
	}
	return &Worker{s: s, ctxs: ctxs}
}

// Ctx exposes the execution context (harness use); for a sharded store,
// the context used against shard 0.
func (w *Worker) Ctx() *exec.Ctx { return w.ctxs[0] }

// at routes a key to (owning engine, this worker's context for it),
// bumping the shard's routing counter when metrics are enabled.
func (w *Worker) at(key uint64, m *storeMetrics) (*engine, *exec.Ctx) {
	si := w.s.shardOf(key)
	if m != nil {
		m.shardOps[si].Inc()
	}
	return w.s.shards[si], w.ctxs[si]
}

// Put adds or updates a key with an arbitrary byte value (up to
// MaxValueLen bytes; zero-length values are legal and distinct from
// absence). It returns the previous value and whether the key was
// present. The returned slice aliases the worker's internal buffer and
// is valid only until this worker's next operation — copy it to keep
// it. The value becomes visible and durable through one CAS of the
// node's value word — the 8 bytes themselves, or a reference to bytes
// written out-of-place and persisted first — so a crash anywhere in the
// operation leaves the key holding either the complete old value or the
// complete new one, never a torn mix.
func (w *Worker) Put(key uint64, val []byte) (old []byte, existed bool, err error) {
	m := w.s.met.Load()
	e, ctx := w.at(key, m)
	w.ops++
	if m == nil {
		w.vbuf, existed, err = e.put(ctx, key, val, w.vbuf[:0])
		return w.vbuf, existed, err
	}
	start := metrics.Now()
	w.vbuf, existed, err = e.put(ctx, key, val, w.vbuf[:0])
	m.opLat[opKindInsert].Since(start)
	return w.vbuf, existed, err
}

// Get returns the value stored under key. The returned slice aliases
// the worker's internal buffer and is valid only until this worker's
// next operation; use GetInto to land the bytes in a caller-owned
// buffer instead.
func (w *Worker) Get(key uint64) ([]byte, bool) {
	m := w.s.met.Load()
	e, ctx := w.at(key, m)
	w.ops++
	var ok bool
	if m == nil {
		w.vbuf, ok = e.get(ctx, key, w.vbuf[:0])
		return w.vbuf, ok
	}
	start := metrics.Now()
	w.vbuf, ok = e.get(ctx, key, w.vbuf[:0])
	m.opLat[opKindGet].Since(start)
	return w.vbuf, ok
}

// GetInto appends the value stored under key to dst and returns the
// extended slice, avoiding both the worker buffer and any hidden copy —
// the bytes are decoded from the node word or the slab chunk straight
// into dst.
func (w *Worker) GetInto(key uint64, dst []byte) ([]byte, bool) {
	m := w.s.met.Load()
	e, ctx := w.at(key, m)
	w.ops++
	if m == nil {
		return e.get(ctx, key, dst)
	}
	start := metrics.Now()
	out, ok := e.get(ctx, key, dst)
	m.opLat[opKindGet].Since(start)
	return out, ok
}

// View calls fn with the value stored under key, reporting whether the
// key was present. The slice passed to fn is only valid for the
// duration of the call (it aliases the worker's buffer); fn must not
// retain it.
func (w *Worker) View(key uint64, fn func(val []byte)) bool {
	v, ok := w.Get(key)
	if ok {
		fn(v)
	}
	return ok
}

// Contains reports whether key is present.
func (w *Worker) Contains(key uint64) bool {
	m := w.s.met.Load()
	e, ctx := w.at(key, m)
	w.ops++
	if m == nil {
		return e.list.Contains(ctx, key)
	}
	start := metrics.Now()
	ok := e.list.Contains(ctx, key)
	m.opLat[opKindContains].Since(start)
	return ok
}

// Remove deletes key, returning the removed value and whether it was
// present. The returned slice follows the same worker-buffer lifetime
// rule as Get.
func (w *Worker) Remove(key uint64) ([]byte, bool, error) {
	m := w.s.met.Load()
	e, ctx := w.at(key, m)
	w.ops++
	var ok bool
	var err error
	if m == nil {
		w.vbuf, ok, err = e.remove(ctx, key, w.vbuf[:0])
		return w.vbuf, ok, err
	}
	start := metrics.Now()
	w.vbuf, ok, err = e.remove(ctx, key, w.vbuf[:0])
	m.opLat[opKindRemove].Since(start)
	return w.vbuf, ok, err
}

// Scan visits all live pairs with keys in [lo, hi] in ascending order
// until fn returns false. The per-shard bottom levels are merged on the
// fly, so the callback sees one globally ascending key sequence. The
// value slice passed to fn is only valid for that callback invocation.
func (w *Worker) Scan(lo, hi uint64, fn func(key uint64, val []byte) bool) error {
	w.ops++
	if m := w.s.met.Load(); m != nil {
		start := metrics.Now()
		err := w.scan(lo, hi, fn)
		m.opLat[opKindScan].Since(start)
		return err
	}
	return w.scan(lo, hi, fn)
}

// scan is the uninstrumented body of Scan.
func (w *Worker) scan(lo, hi uint64, fn func(key uint64, val []byte) bool) error {
	if lo > min(hi, KeyMax) {
		return nil
	}
	m := w.mergedCursor()
	for ok := m.Seek(lo); ok && m.Key() <= hi; ok = m.Next() {
		if !fn(m.Key(), m.ValueBytes()) {
			return nil
		}
	}
	return nil
}

// PutU64 stores value as its 8 little-endian bytes — the shim for
// fixed-width callers. Every value below 2^63 is stored in the node word
// itself: an overwrite is the paper's single-word CAS and one persist.
func (w *Worker) PutU64(key, value uint64) (old uint64, existed bool, err error) {
	binary.LittleEndian.PutUint64(w.u64b[:], value)
	ob, existed, err := w.Put(key, w.u64b[:])
	if existed {
		old = leU64(ob)
	}
	return old, existed, err
}

// GetU64 reads a value written by PutU64 back as a uint64.
func (w *Worker) GetU64(key uint64) (uint64, bool) {
	v, ok := w.Get(key)
	if !ok {
		return 0, false
	}
	return leU64(v), true
}

// RemoveU64 is Remove for fixed-width callers.
func (w *Worker) RemoveU64(key uint64) (uint64, bool, error) {
	v, ok, err := w.Remove(key)
	if !ok || err != nil {
		return 0, ok, err
	}
	return leU64(v), true, nil
}

// ScanU64 is Scan for fixed-width callers: each value is decoded as its
// first 8 little-endian bytes (zero-padded when shorter).
func (w *Worker) ScanU64(lo, hi uint64, fn func(key, value uint64) bool) error {
	return w.Scan(lo, hi, func(k uint64, v []byte) bool {
		return fn(k, leU64(v))
	})
}

// leU64 decodes up to 8 little-endian bytes, zero-padding short values.
func leU64(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var t [8]byte
	copy(t[:], b)
	return binary.LittleEndian.Uint64(t[:])
}

// mergedCursor returns the worker's reusable cross-shard merge cursor.
func (w *Worker) mergedCursor() *skiplist.Merged {
	if w.merged == nil {
		w.merged = skiplist.NewMerged(w.shardIterators())
	}
	return w.merged
}

// shardIterators returns a fresh bottom-level cursor per shard.
func (w *Worker) shardIterators() []*skiplist.Iterator {
	its := make([]*skiplist.Iterator, len(w.s.shards))
	for i, e := range w.s.shards {
		its[i] = e.list.NewIterator(w.ctxs[i])
	}
	return its
}

// Count returns the number of live keys across all shards (quiesced
// walk).
func (w *Worker) Count() int {
	total := 0
	for i, e := range w.s.shards {
		total += e.list.Count(w.ctxs[i])
	}
	return total
}

// Iterator is a forward cursor over live pairs in ascending key order:
// Seek positions it on the first pair with key >= the argument, Next
// advances, Key/Value read the current pair while Valid (ValueU64 is
// the fixed-width compat accessor). The slice returned by Value aliases
// the cursor's buffer and stays valid until the cursor leaves the
// current node — copy it to keep it across Next calls. Like the worker
// that created it, an Iterator must not be shared between goroutines.
type Iterator interface {
	Seek(key uint64) bool
	Next() bool
	Valid() bool
	Key() uint64
	Value() []byte
	ValueU64() uint64
}

// storeIter adapts a merge over per-shard cursors to the store's
// bytes-first Iterator interface.
type storeIter struct {
	c *skiplist.Merged
}

func (it storeIter) Seek(key uint64) bool { return it.c.Seek(key) }
func (it storeIter) Next() bool           { return it.c.Next() }
func (it storeIter) Valid() bool          { return it.c.Valid() }
func (it storeIter) Key() uint64          { return it.c.Key() }
func (it storeIter) Value() []byte        { return it.c.ValueBytes() }
func (it storeIter) ValueU64() uint64     { return leU64(it.c.ValueBytes()) }

// Iterator returns a fresh cursor over the whole store: a merge over
// every shard's bottom level, which yields keys in globally ascending
// order across shard boundaries.
func (w *Worker) Iterator() Iterator {
	return storeIter{c: skiplist.NewMerged(w.shardIterators())}
}

// CheckInvariants validates structural invariants of every shard
// (quiesced), plus the routing invariant that every key lives in the
// shard that owns it.
func (w *Worker) CheckInvariants() error {
	for i, e := range w.s.shards {
		if err := e.list.CheckInvariants(w.ctxs[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if len(w.s.shards) > 1 {
			var stray error
			e.list.Scan(w.ctxs[i], KeyMin, KeyMax, func(k, v uint64) bool {
				if w.s.shardOf(k) != i {
					stray = fmt.Errorf("shard %d holds key %d owned by shard %d", i, k, w.s.shardOf(k))
					return false
				}
				return true
			})
			if stray != nil {
				return stray
			}
		}
	}
	return nil
}

// Save writes every pool's durable image into dir (one file per pool,
// shard-qualified names for sharded stores).
func (s *Store) Save(dir string) error {
	// Save is a quiesced entry point; flush limbo so the saved image
	// carries no retired blocks (they would be rediscovered anyway, but a
	// clean image loads clean).
	s.PauseReclaim()
	defer s.ResumeReclaim()
	s.drainReclaimQuiesced()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for si, e := range s.shards {
		for _, p := range e.pools {
			f, err := os.Create(filepath.Join(dir, poolFileName(len(s.shards), si, p.ID())))
			if err != nil {
				return err
			}
			if _, err := p.WriteTo(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return writeMeta(dir, s.opts, "phys")
}

// poolFileName keeps the historical "pool%d.upsl" names for unsharded
// stores (readable by and from older revisions) and qualifies by shard
// otherwise.
func poolFileName(shards, shard int, poolID uint16) string {
	if shards == 1 {
		return fmt.Sprintf("pool%d.upsl", poolID)
	}
	return fmt.Sprintf("s%d_pool%d.upsl", shard, poolID)
}

// Load re-creates a store from images written by Save (physical pool
// images; a restart across processes, so every shard's epoch advances)
// or from a SaveOnline logical dump (fresh pools rebuilt bottom-up from
// the dumped pairs). Anything else in dir fails with ErrBadDump.
func Load(dir string) (*Store, error) {
	return LoadWithConfig(dir, LoadConfig{})
}

// LoadWithConfig is Load with recovery tuning: a parallelism override, a
// cost model, and a crash injector installed before recovery work begins
// (see LoadConfig). The loaded store runs the default read-path tuning;
// Store.SetTuning changes it.
func LoadWithConfig(dir string, cfg LoadConfig) (*Store, error) {
	opts, kind, err := loadMeta(dir)
	if err != nil {
		return nil, err
	}
	if cfg.RecoveryParallelism != 0 {
		opts.RecoveryParallelism = cfg.RecoveryParallelism
	}
	if cfg.Cost != nil {
		opts.Cost = cfg.Cost
	}
	if kind == "pairs" {
		return loadPairsDump(dir, opts, cfg)
	}
	st := &Store{opts: opts, topo: numa.Topology{Nodes: opts.NUMANodes}}
	n := opts.Shards
	engines := make([]*engine, n)
	recs := make([]shardRecovery, n)
	par := normalizeRecoveryParallelism(opts.RecoveryParallelism)
	t0 := time.Now()
	err = recoverShards(n, par, func(i, scanPar int) error {
		tRead := time.Now()
		pools, err := loadShardPools(dir, opts, st.topo, i)
		if err != nil {
			return err
		}
		if cfg.Injector != nil {
			for _, p := range pools {
				p.SetInjector(cfg.Injector)
			}
		}
		recs[i].attach += time.Since(tRead)
		e, err := recoverShard(opts, skiplist.Tuning{}, pools, scanPar, &recs[i])
		engines[i] = e
		return err
	})
	if err != nil {
		return nil, err
	}
	st.shards = engines
	st.recovery = summarizeRecovery(par, recs, time.Since(t0))
	return st, nil
}

// loadShardPools reads one shard's pool images back with the same
// placement newShardPools would assign.
func loadShardPools(dir string, opts Options, topo numa.Topology, shard int) ([]*pmem.Pool, error) {
	nPools := 1
	if opts.Shards == 1 && opts.Placement == PerNode {
		nPools = opts.NUMANodes
	}
	var pools []*pmem.Pool
	for id := 0; id < nPools; id++ {
		f, err := os.Open(filepath.Join(dir, poolFileName(opts.Shards, shard, uint16(id))))
		if err != nil {
			return nil, err
		}
		home, stripe := -1, 0
		switch {
		case opts.Shards > 1 && opts.Placement == PerNode:
			home = topo.ShardNode(shard)
		case opts.Placement == PerNode:
			home = id
		case opts.Placement == Striped:
			stripe = opts.NUMANodes
		}
		p, err := pmem.ReadPool(f, home, stripe, opts.Cost)
		f.Close()
		if err != nil {
			return nil, err
		}
		pools = append(pools, p)
	}
	return pools, nil
}

// writeMeta/loadMeta persist Options in a tiny sidecar file: one v4 line
// carrying a dump-kind token after the version — "phys" for physical
// pool images (Save), "pairs" for logical key/value dumps (SaveOnline).
func writeMeta(dir string, o Options, kind string) error {
	f, err := os.Create(filepath.Join(dir, "meta.upsl"))
	if err != nil {
		return err
	}
	defer f.Close()
	sorted := 0
	if o.SortedNodes {
		sorted = 1
	}
	_, err = fmt.Fprintf(f, "v4 %s %d %d %d %d %d %d %d %d %d %d %d\n",
		kind, o.MaxHeight, o.KeysPerNode, sorted, o.NUMANodes, int(o.Placement),
		o.PoolWords, o.ChunkWords, o.MaxChunks, o.NumArenas, o.NumThreads, o.Shards)
	return err
}

// loadMeta parses the sidecar and returns the options and the dump kind
// ("phys" or "pairs"). The options are validated here, once, for both
// kinds and before anything is sized from them: a line that is not v4,
// does not parse, or carries values writeMeta cannot have written is
// ErrBadDump. A physical dump has at least one pool file per shard, so
// its shard count is bounded by the pool files present in dir.
func loadMeta(dir string) (Options, string, error) {
	f, err := os.Open(filepath.Join(dir, "meta.upsl"))
	if err != nil {
		return Options{}, "", err
	}
	defer f.Close()
	bad := func(why error) (Options, string, error) {
		return Options{}, "", fmt.Errorf("%w: meta.upsl: %w", ErrBadDump, why)
	}
	var ver, kind string
	if _, err := fmt.Fscan(f, &ver); err != nil {
		return bad(err)
	}
	if ver != "v4" {
		return bad(fmt.Errorf("format %q is not the v4 this revision reads", ver))
	}
	var o Options
	var sorted, placement int
	if _, err := fmt.Fscan(f, &kind, &o.MaxHeight, &o.KeysPerNode, &sorted, &o.NUMANodes,
		&placement, &o.PoolWords, &o.ChunkWords, &o.MaxChunks, &o.NumArenas, &o.NumThreads,
		&o.Shards); err != nil {
		return bad(err)
	}
	o.SortedNodes = sorted == 1
	o.Placement = Placement(placement)
	switch {
	case kind != "phys" && kind != "pairs":
		return bad(fmt.Errorf("unknown dump kind %q", kind))
	case o.Placement < SinglePool || o.Placement > PerNode:
		return bad(fmt.Errorf("placement %d out of range", placement))
	case o.Shards < 1:
		return bad(fmt.Errorf("shard count %d", o.Shards))
	}
	if err := o.normalize(); err != nil {
		return bad(err)
	}
	if kind == "phys" {
		pools := 0
		entries, _ := os.ReadDir(dir) // unreadable: no pool files, rejected below
		for _, e := range entries {
			if ok, _ := filepath.Match("*pool*.upsl", e.Name()); ok {
				pools++
			}
		}
		if o.Shards > pools {
			return bad(fmt.Errorf("%d shards but %d pool files", o.Shards, pools))
		}
	}
	return o, kind, nil
}
