// Package skiplist implements UPSkipList, the paper's recoverable,
// persistent-memory-resident concurrent skip list (Chapter 4).
//
// The algorithm is Herlihy et al.'s lock-free skip list extended with:
//
//   - Multiple keys per node with recoverable concurrent node splits
//     guarded by a per-node reader/writer split lock. Value updates take
//     the lock shared; only the key-transfer phase of a split takes it
//     exclusive, so updates to different keys and all reads stay
//     concurrent.
//
//   - The RECIPE extension of §4.1.3: every node carries the failure-free
//     epoch in which it was created or last verified. A traversal that
//     meets a node from an older epoch claims it with a CAS on the epoch
//     word and repairs whatever the crashed owner left behind — an
//     unfinished tower (CheckForInsertRecovery) or a half-done split
//     (CheckForNodeSplitRecovery). Searches repair at most one unfinished
//     tower per traversal to keep post-recovery throughput up (§4.4.1);
//     interrupted splits are always repaired on sight because their nodes
//     are unusable until fixed.
//
//   - Allocation logging (§4.1.4) via the alloc package: each new node is
//     logged before it leaves the free list, so a crash between
//     allocation and linking is detected by the same thread ID's next
//     allocation and the block reclaimed, in O(threads) total work.
//
// Removals follow the paper: the value slot is replaced with a tombstone
// (§4.6). Beyond the paper, a node whose values are all tombstones is
// retired — unlinked under a persistent intent log and its block freed —
// by the quiesced Compact or the online Reclaimer (compact.go,
// reclaim.go).
//
// All state lives in pmem pool words addressed by extended RIV pointers;
// reopening after a crash needs only re-attaching the pools and bumping
// the epoch clock — recovery work is deferred into subsequent operations.
package skiplist

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

const (
	rootMagic = 0x5550534B49504C53 // "UPSKIPLS"

	rootOffMagic  = 0
	rootOffHeight = 1
	rootOffKeys   = 2
	rootOffHead   = 3
	rootOffTail   = 4
	rootOffFlags  = 5

	flagSorted = 1 << 0

	// MaxHeight is the tallest tower supported (the paper runs with 32
	// levels). The cap is what the meta word's 8-bit height field and the
	// lock word's layout were sized for.
	MaxHeight = 32

	// MaxKeysPerNode is the largest node capacity the meta word's 16-bit
	// sorted-prefix field can describe.
	MaxKeysPerNode = 0xffff

	// defaultTowerBranch is the default inverse promotion probability of
	// the tower height generator (see Tuning.TowerBranch): towers promote
	// with p = 1/4, the B-Skiplist-shaped sparse-tower bias tuned against
	// YCSB-C — with fat multi-key bottom nodes, a level of indexing is
	// only worth its cache lines when it skips several nodes at once.
	defaultTowerBranch = 4

	// maxTowerBranch bounds the tunable bias; beyond this towers are so
	// rare the structure degenerates into a linked list of fat nodes.
	maxTowerBranch = 64
)

// Errors.
var (
	ErrBadConfig    = errors.New("skiplist: invalid configuration")
	ErrNotFormatted = errors.New("skiplist: pool holds no skip list root")
	ErrKeyRange     = errors.New("skiplist: key outside [KeyMin, KeyMax]")
	ErrValueRange   = errors.New("skiplist: value must be below the tombstone sentinel")
)

// Config describes a skip list's persistent geometry.
type Config struct {
	// MaxHeight is the number of levels (1..MaxHeight).
	MaxHeight int
	// KeysPerNode is the data-node capacity; the paper's throughput runs
	// use 256, and 1 reproduces a classic one-key-per-node skip list
	// (used for the Figure 5.3 pointer comparison).
	KeysPerNode int
	// SortedNodes enables the paper's proposed future-work optimization:
	// node splits leave both halves sorted and lookups binary-search the
	// sorted prefix before scanning the unsorted overflow, as BzTree does.
	SortedNodes bool
}

// Tuning is the volatile traversal tuning of one list handle — the seam
// through which experiments and tests reach the ablations of the read
// path. None of it is persisted and none of it can change a result or
// what recovery does, only what an operation costs; the equivalence
// tests pin that. The zero value is what the product runs: hint cache
// and prefetching on, sparse towers, one deferred repair per traversal.
// Each field switches one mechanism, and each mechanism earns its
// switch in counts (the rent table, TestReadPathRent).
type Tuning struct {
	// RecoveryBudget bounds how many deferrable (tower) repairs one
	// traversal performs after a crash — the paper's k (§4.4.1), kept
	// low to avoid post-recovery throughput collapse. 0 means the
	// default of 1; negative means unlimited (eager repair-on-sight).
	// Interrupted splits are always repaired regardless.
	RecoveryBudget int
	// TowerBranch is the inverse promotion probability of the tower
	// height generator: a new node's tower reaches level l+1 with
	// probability 1/TowerBranch. 2 reproduces Pugh's classic p = 1/2
	// draw; 0 means the default (4), the B-Skiplist shape where fat
	// bottom nodes carry the fan-out and the few index levels stay
	// cache-resident. Other values are clamped into [2, 64]. Heights
	// already drawn are unaffected.
	TowerBranch int
	// NoHints turns off the per-worker predecessor-hint cache that seeds
	// traversals below the top levels.
	NoHints bool
	// NoPrefetch turns off traversal prefetching: descents, the batch
	// applier and iterators prefetch nothing.
	NoPrefetch bool
}

// DefaultConfig matches the paper's evaluation parameters scaled for
// in-process testing.
func DefaultConfig() Config { return Config{MaxHeight: 16, KeysPerNode: 16} }

// BlockWordsFor returns the allocator block size needed by a config.
func BlockWordsFor(cfg Config) uint64 {
	return offNext + uint64(cfg.MaxHeight) + 2*uint64(cfg.KeysPerNode)
}

// SkipList is a handle onto a (possibly shared) persistent skip list. The
// handle itself is volatile; everything durable lives in the pools.
type SkipList struct {
	a     *alloc.Allocator
	space *riv.Space

	rootPool *pmem.Pool
	rootOff  uint64

	maxHeight   int
	keysPerNode int
	sorted      bool
	blockWords  uint64

	// Volatile tuning, written only by SetTuning.
	budget    int  // deferrable repairs per traversal; <0 = unlimited
	branch    int  // inverse tower promotion probability (>= 2)
	foresight bool // traversal prefetching

	head riv.Ptr
	tail riv.Ptr

	// topHint is a DRAM-side bound on the highest level with any node
	// linked. Traversals start from it instead of MaxHeight, saving
	// empty-level hops through the tail. It is raised before a taller
	// tower is linked and never lowered, so a traversal cannot start
	// below a linked level; after retirement empties the top levels it
	// merely starts a few empty levels high. Rebuilt on Open by scanning
	// the head's next pointers.
	topHint atomic.Int32

	// hints enables seeding traversals from each worker's volatile
	// HintCache. hintGen is bumped whenever node memory may be reclaimed
	// (compaction, or an online-reclaim limbo batch closing) so every
	// worker's cache self-invalidates: within one generation a published
	// node's block is never freed, which is what makes a cached pointer
	// safe to probe.
	hints   bool
	hintGen atomic.Uint64

	// dom is the volatile grace-period domain workers pin on op entry and
	// vlog the MVCC version log (mvcc.go). Create/Open build both, once:
	// a handle is born with everything snapshots and reclamation need,
	// and nothing reassigns them while workers run.
	dom  *epoch.Domain
	vlog *versionLog

	// Online reclamation state (reclaim.go): rec is the attached
	// reclaimer. reclaimOn is sticky: once a reclaimer has ever run on
	// this handle, KindRetired nodes may be linked, so traversals keep
	// paying the skip check even after the reclaimer stops. Both are set
	// before concurrent operations begin (StartReclaim's contract).
	rec       *Reclaimer
	reclaimOn bool

	// decode materializes a value word into bytes (resolving slab
	// references); installed by the engine, used by the iterator at
	// node-snapshot time while the era pin is held.
	decode func(word uint64, dst []byte, acc *pmem.Acc) []byte

	// stats
	recoveries recoveryCounters
}

// pin marks operation entry. The depth counter makes nested public ops
// (Contains -> Get, batch application) one operation; the outermost
// entry stamps the worker's reclamation-era slot.
func (s *SkipList) pin(ctx *exec.Ctx) {
	if ctx.Pins == 0 {
		s.dom.Enter(ctx.ThreadID)
	}
	ctx.Pins++
}

// unpin marks operation exit. When the outermost operation exits, the
// era slot is cleared and the worker's cost-model ledger is published:
// between operations, pool Stats hold everything the worker did.
func (s *SkipList) unpin(ctx *exec.Ctx) {
	if ctx.Pins == 0 {
		return
	}
	if ctx.Pins--; ctx.Pins == 0 {
		s.dom.Exit(ctx.ThreadID)
		ctx.Mem.Publish()
	}
}

// Pin opens an operation on behalf of a caller that reads era-protected
// state outside a single list operation — the engine's value decode
// after Get, for instance. Reentrant via ctx.Pins: nested list
// operations share the outermost pin, and the caller's own pool accesses
// are published with theirs when it Unpins.
func (s *SkipList) Pin(ctx *exec.Ctx) { s.pin(ctx) }

// Unpin releases a Pin.
func (s *SkipList) Unpin(ctx *exec.Ctx) { s.unpin(ctx) }

// Domain returns the list's grace-period domain, which is never nil:
// Create/Open build it. Worker pins, snapshot pins, the node reclaimer
// and value-chunk retirement all share its one era space.
func (s *SkipList) Domain() *epoch.Domain { return s.dom }

// newDomain sizes a list's era domain from its allocator: one worker
// slot per allocation-log thread ID, then epoch.NumPins more for the
// snapshot readers a store numbers above them.
func newDomain(pa *alloc.PoolAllocator) *epoch.Domain {
	return epoch.NewDomain(pa.Config().NumLogs + epoch.NumPins)
}

// ForEachValueWord walks the bottom level and invokes fn with every
// value word of every node, tombstones and empty slots included. It
// takes no locks and performs no validation: callers run it quiesced
// (startup, before workers exist) — it is the liveness scan the slab
// sweep builds its referenced-chunk set from.
func (s *SkipList) ForEachValueWord(ctx *exec.Ctx, fn func(word uint64)) {
	for p := s.head; !p.IsNull() && p != s.tail; {
		n := s.node(p)
		for i := 0; i < s.keysPerNode; i++ {
			if n.key(s, i, ctx.Mem) == keyEmpty {
				continue
			}
			fn(n.value(s, i, ctx.Mem))
		}
		p = n.next(s, 0, ctx.Mem)
	}
}

// SetValueDecoder installs the hook the engine uses to materialize a
// value word into bytes (resolving slab references). The iterator calls
// it at node-snapshot time, under the era pin, so the decoded bytes stay
// valid even after the referenced chunk is retired and freed.
func (s *SkipList) SetValueDecoder(fn func(word uint64, dst []byte, acc *pmem.Acc) []byte) {
	s.decode = fn
}

// Recoveries is a snapshot of repair actions performed during
// traversals; exposed for tests and the experiment harness.
type Recoveries struct {
	Claims  int64 // stale nodes claimed by epoch CAS
	Inserts int64 // towers completed
	Splits  int64 // splits completed
}

// recoveryCounters is the live, atomically-updated form.
type recoveryCounters struct {
	claims  atomic.Int64
	inserts atomic.Int64
	splits  atomic.Int64
}

func (cfg Config) validate() error {
	if cfg.MaxHeight < 1 || cfg.MaxHeight > MaxHeight || cfg.KeysPerNode < 1 || cfg.KeysPerNode > MaxKeysPerNode {
		return ErrBadConfig
	}
	return nil
}

// Create formats a new skip list in the allocator's pools. The root
// object is written into pool 0's root area and head/tail sentinels are
// allocated. The allocator must already be attached and its epoch clock
// initialized.
func Create(a *alloc.Allocator, cfg Config) (*SkipList, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rootPA := a.PoolByID(0)
	if rootPA == nil {
		return nil, errors.New("skiplist: allocator has no pool 0")
	}
	if a.BlockWords() < BlockWordsFor(cfg) {
		return nil, fmt.Errorf("%w: block size %d < required %d", ErrBadConfig, a.BlockWords(), BlockWordsFor(cfg))
	}
	s := &SkipList{
		a: a, space: a.Space(),
		rootPool: rootPA.Pool(), rootOff: rootPA.RootOff(),
		maxHeight: cfg.MaxHeight, keysPerNode: cfg.KeysPerNode,
		sorted:     cfg.SortedNodes,
		blockWords: a.BlockWords(),
		dom:        newDomain(rootPA),
		vlog:       &versionLog{},
	}
	s.SetTuning(Tuning{})

	node := rootPA.Pool().HomeNode()
	if node < 0 {
		node = 0
	}
	ctx := exec.NewCtx(0, node)
	defer ctx.Mem.Publish()
	// Tail first so head can point at it.
	tailPtr, err := a.Alloc(ctx, riv.Null, keyInf)
	if err != nil {
		return nil, err
	}
	tail := s.node(tailPtr)
	s.initNode(tail, []uint64{keyInf}, []uint64{Tombstone}, cfg.MaxHeight, ctx.Mem)
	tail.persistAll(s, ctx.Mem)

	headPtr, err := a.Alloc(ctx, riv.Null, 0)
	if err != nil {
		return nil, err
	}
	head := s.node(headPtr)
	s.initNode(head, nil, nil, cfg.MaxHeight, ctx.Mem)
	for l := 0; l < cfg.MaxHeight; l++ {
		head.setNext(s, l, tailPtr, ctx.Mem)
	}
	head.persistAll(s, ctx.Mem)

	r, off := s.rootPool, s.rootOff
	r.Store(off+rootOffHeight, uint64(cfg.MaxHeight), ctx.Mem)
	r.Store(off+rootOffKeys, uint64(cfg.KeysPerNode), ctx.Mem)
	r.Store(off+rootOffHead, headPtr.Word(), ctx.Mem)
	r.Store(off+rootOffTail, tailPtr.Word(), ctx.Mem)
	flags := uint64(0)
	if cfg.SortedNodes {
		flags |= flagSorted
	}
	r.Store(off+rootOffFlags, flags, ctx.Mem)
	r.Persist(off, 8, ctx.Mem)
	r.Store(off+rootOffMagic, rootMagic, ctx.Mem)
	r.Persist(off+rootOffMagic, 1, ctx.Mem)

	s.head, s.tail = headPtr, tailPtr
	s.topHint.Store(0)
	s.installRecovery()
	return s, nil
}

// Open attaches to an existing skip list. The caller is responsible for
// having advanced the epoch clock if this attach follows a crash; Open
// itself performs no structure-sized work — that is the paper's
// constant-time recovery guarantee (§4.1.5).
func Open(a *alloc.Allocator) (*SkipList, error) {
	rootPA := a.PoolByID(0)
	if rootPA == nil {
		return nil, errors.New("skiplist: allocator has no pool 0")
	}
	r, off := rootPA.Pool(), rootPA.RootOff()
	if r.Load(off+rootOffMagic, nil) != rootMagic {
		return nil, ErrNotFormatted
	}
	s := &SkipList{
		a: a, space: a.Space(),
		rootPool: r, rootOff: off,
		maxHeight:   int(r.Load(off+rootOffHeight, nil)),
		keysPerNode: int(r.Load(off+rootOffKeys, nil)),
		sorted:      r.Load(off+rootOffFlags, nil)&flagSorted != 0,
		blockWords:  a.BlockWords(),
		head:        riv.FromWord(r.Load(off+rootOffHead, nil)),
		tail:        riv.FromWord(r.Load(off+rootOffTail, nil)),
		dom:         newDomain(rootPA),
		vlog:        &versionLog{},
	}
	s.SetTuning(Tuning{})
	if s.maxHeight < 1 || s.maxHeight > MaxHeight || s.head.IsNull() || s.tail.IsNull() {
		return nil, ErrNotFormatted
	}
	// Rebuild the DRAM top-level hint from the persistent head node.
	head := s.node(s.head)
	top := 0
	for l := s.maxHeight - 1; l >= 0; l-- {
		if head.next(s, l, nil) != s.tail {
			top = l
			break
		}
	}
	s.topHint.Store(int32(top))
	s.installRecovery()
	// Finish any compaction a crash interrupted (quiesced; see compact.go).
	ctx := exec.NewCtx(0, 0)
	s.recoverCompaction(ctx)
	ctx.Mem.Publish()
	return s, nil
}

// installRecovery wires the allocator's deferred-log reachability check
// to a bottom-level walk of this list (Function 3 lines 15–22).
func (s *SkipList) installRecovery() {
	s.a.SetReachabilityCheck(func(ctx *exec.Ctx, pred riv.Ptr, key uint64, block riv.Ptr) bool {
		start := pred
		if start.IsNull() {
			start = s.head
		}
		cur := s.node(start)
		for {
			if cur.ptr == block {
				return true
			}
			nxt := cur.next(s, 0, ctx.Mem)
			if nxt.IsNull() {
				return false
			}
			cur = s.node(nxt)
			if cur.key0(s, ctx.Mem) > key {
				return false
			}
		}
	})
}

// initNode fills a freshly allocated block with node fields. keys[i]
// beyond len(keys) are empty; values likewise tombstones. It does NOT
// persist: callers flush the block — together with any tower prefill
// stores that follow — in one coalesced batch with a single fence, and
// must do so before publishing the node.
func (s *SkipList) initNode(n nodeRef, keys, values []uint64, height int, nd *pmem.Acc) {
	n.pool.Store(n.off+offSplitCount, 0, nd)
	n.pool.Store(n.off+offSplitLock, 0, nd)
	sorted := 0
	if s.sorted {
		sorted = len(keys)
	}
	n.pool.Store(n.off+offMeta, metaWord(height, sorted), nd)
	k0 := keyEmpty
	if len(keys) > 0 {
		k0 = keys[0]
	}
	n.pool.Store(n.off+offKey0, k0, nd)
	for l := 0; l < s.maxHeight; l++ {
		n.setNext(s, l, riv.Null, nd)
	}
	for i := 0; i < s.keysPerNode; i++ {
		k, v := keyEmpty, Tombstone
		if i < len(keys) {
			k = keys[i]
			v = values[i]
		}
		n.pool.Store(n.off+s.keyOff(i), k, nd)
		n.pool.Store(n.off+s.valOff(i), v, nd)
	}
}

// SetTuning applies t to this volatile handle, replacing whatever was
// set before; the zero Tuning restores the product defaults. It must be
// called before concurrent operations begin (a store holds its
// reclaimers paused around it).
func (s *SkipList) SetTuning(t Tuning) {
	s.budget = t.RecoveryBudget
	if s.budget == 0 {
		s.budget = 1
	}
	s.branch = defaultTowerBranch
	if t.TowerBranch != 0 {
		s.branch = min(max(t.TowerBranch, 2), maxTowerBranch)
	}
	s.hints = !t.NoHints
	s.foresight = !t.NoPrefetch
}

// Tuning returns the tuning in force, defaults resolved.
func (s *SkipList) Tuning() Tuning {
	return Tuning{
		RecoveryBudget: s.budget, TowerBranch: s.branch,
		NoHints: !s.hints, NoPrefetch: !s.foresight,
	}
}

// drawHeight draws a new node's tower height under the tuned
// sparse-tower bias.
func (s *SkipList) drawHeight(ctx *exec.Ctx) int {
	return ctx.GeometricHeightB(s.maxHeight, s.branch)
}

// Head and Tail expose the sentinels for tests and invariant checkers.
func (s *SkipList) Head() riv.Ptr { return s.head }
func (s *SkipList) Tail() riv.Ptr { return s.tail }

// Config returns the geometry.
func (s *SkipList) Config() Config {
	return Config{MaxHeight: s.maxHeight, KeysPerNode: s.keysPerNode, SortedNodes: s.sorted}
}

// RecoveryStats returns a snapshot of the repair counters.
func (s *SkipList) RecoveryStats() Recoveries {
	return Recoveries{
		Claims:  s.recoveries.claims.Load(),
		Inserts: s.recoveries.inserts.Load(),
		Splits:  s.recoveries.splits.Load(),
	}
}

// traverseResult carries what Traverse (Function 7) reports back.
type traverseResult struct {
	splitCount uint64
	keyIndex   int
	found      bool
	levelFound int
}

// Hint-cache tuning. A hint maps a key prefix (key >> hintShift) to the
// node that covered the last key traversed in that prefix, so nearby keys
// skip the upper levels entirely.
const (
	// hintShift groups 2^hintShift adjacent keys per cache slot; with
	// multi-key nodes, neighbours usually share a covering node anyway.
	hintShift = 3
	// hintHopBudget bounds how many advances a hint-seeded descent may
	// make before concluding the hint is stale (the structure grew past
	// it) and restarting cold. A fresh hint needs only a handful of hops.
	hintHopBudget = 32
)

// hintSeed validates a cached predecessor hint for key against the live
// node. A hint may be arbitrarily stale — the block could have been any
// node, or (after compaction, which bumps hintGen and so wipes caches
// before this runs) even freed — so every property the descent relies on
// is re-checked: the block is a node of the current epoch whose immutable
// first key is a lower bound for key, linked at the hinted level with a
// non-null successor. Anything else falls back to the full descent.
func (s *SkipList) hintSeed(ctx *exec.Ctx, key, curEpoch uint64) (nodeRef, int, bool) {
	w, lvl8, ok := ctx.Hints.Get(key >> hintShift)
	if !ok {
		ctx.Hints.Missed++
		return nodeRef{}, 0, false
	}
	pool, off, ok := s.space.TryResolve(riv.FromWord(w))
	if !ok || off+s.blockWords > pool.Size() {
		return nodeRef{}, 0, false
	}
	n := nodeRef{pool: pool, off: off, ptr: riv.FromWord(w)}
	if s.foresight {
		// Warm the hinted node's header and key lines before the
		// validation loads below touch either: issuing both prefetches
		// up front overlaps the two line fetches (memory-level
		// parallelism) where sequential validation would miss twice. If
		// the hint proves stale the prefetches were the only cost —
		// bounds-checked hints into freed or foreign memory are dropped
		// by Prefetch itself, so a stale hint leaves nothing dangling.
		n.prefetchHeader(ctx.Mem)
		n.prefetchKeys(s, ctx.Mem)
	}
	if pool.Load(off+offKind, ctx.Mem) != alloc.KindNode {
		return nodeRef{}, 0, false
	}
	if n.epoch(ctx.Mem) != curEpoch {
		// Pre-crash nodes must go through the normal claim/repair path;
		// epoch mismatch also catches hints recorded against a previous
		// incarnation of the store.
		return nodeRef{}, 0, false
	}
	k0 := n.key0(s, ctx.Mem)
	if k0 == keyEmpty || k0 == keyInf || k0 > key {
		return nodeRef{}, 0, false
	}
	lvl := int(lvl8)
	if lvl >= n.height(ctx.Mem) {
		lvl = 0
	}
	if n.next(s, lvl, ctx.Mem).IsNull() {
		// Unpublished (mid-initialization) reuse of the block: not safe
		// to walk from.
		return nodeRef{}, 0, false
	}
	return n, lvl, true
}

// hintRecord remembers the node covering key so the next traversal for a
// nearby key can seed from it. The covering node's height decides the
// seed level: level 1 when the tower reaches it, so the seeded descent
// can still skip over bottom-level nodes in front of the target.
func (s *SkipList) hintRecord(ctx *exec.Ctx, key uint64, cover riv.Ptr) {
	lvl := uint8(0)
	if s.node(cover).height(ctx.Mem) > 1 {
		lvl = 1
	}
	ctx.Hints.Put(key>>hintShift, cover.Word(), lvl)
}

// traverse implements Function 7: descend the tower lists recording, per
// level, the last node whose first key is <= key (preds) and its
// successor (succs). preds[0] is the data node whose key range covers
// key. Along the way stale-epoch nodes are claimed and repaired; any
// repair restarts the traversal, with at most one deferrable (tower)
// repair per call.
//
// When the hint cache is on, the descent starts from a validated
// recently-seen predecessor instead of the head. Levels above the seed
// are filled with head/tail exactly as the levels above topHint are:
// only preds[0]/succs[0] must be exact (bottom-level CASes validate
// them), while upper-level entries are prefill hints that
// linkHigherLevels re-derives before every CAS. A seed that proves stale
// mid-descent (null pointer under it, or more hops than a fresh hint
// could need) abandons hinting and restarts from the head.
func (s *SkipList) traverse(ctx *exec.Ctx, key uint64, preds, succs []riv.Ptr) traverseResult {
	res := traverseResult{keyIndex: -1, levelFound: -1}
	recoveriesDone := 0
	// The current epoch only changes at a post-crash attach, never while
	// operations run, so one read per traversal suffices.
	curEpoch := s.a.Clock().Current()
	useHint := s.hints
	if useHint {
		ctx.Hints.Validate(s, s.hintGen.Load())
	}
outer:
	for {
		pred := s.node(s.head)
		startLevel := int(s.topHint.Load())
		seeded := false
		hops := 0
		if useHint {
			if n, lvl, ok := s.hintSeed(ctx, key, curEpoch); ok {
				pred, startLevel, seeded = n, lvl, true
				ctx.Hints.Seeded++
				ctx.Path.NodesVisited++
				// The descent below only inspects nodes it advances INTO,
				// so the seed — which may itself be the covering node —
				// is accounted for here, mirroring the loop's order.
				res.splitCount = pred.splitCount(ctx.Mem)
				if res.splitCount == splitRetired {
					// Retired since hintSeed looked at its kind.
					ctx.Hints.Drop(key >> hintShift)
					ctx.Hints.Fallback++
					useHint = false
					res = traverseResult{keyIndex: -1, levelFound: -1}
					continue outer
				}
				if pred.key0(s, ctx.Mem) == key {
					res.keyIndex = 0
					res.levelFound = startLevel
				}
			}
		}
		for level := startLevel; level >= 0; level-- {
			nxt := pred.next(s, level, ctx.Mem)
			if seeded && nxt.IsNull() {
				// The seed's block was recycled under us mid-descent:
				// forget the hint and restart cold.
				ctx.Hints.Drop(key >> hintShift)
				ctx.Hints.Fallback++
				useHint = false
				res = traverseResult{keyIndex: -1, levelFound: -1}
				continue outer
			}
			cur := s.node(nxt)
			if s.foresight {
				cur.prefetchHeader(ctx.Mem)
			}
			for {
				ctx.Path.NodesVisited++
				if s.reclaimOn && cur.kind(ctx.Mem) == alloc.KindRetired {
					// A retired node is out of the abstract set but may
					// still be linked (or serve as a bridge mid-unlink):
					// walk through it without adopting it as pred. Checked
					// before the epoch claim so recovery never resurrects a
					// victim's tower.
					cur = s.node(cur.next(s, level, ctx.Mem))
					continue
				}
				if cur.epoch(ctx.Mem) != curEpoch {
					if s.checkForRecovery(ctx, level, cur, &recoveriesDone) {
						res = traverseResult{keyIndex: -1, levelFound: -1}
						continue outer
					}
				}
				curSplit := cur.splitCount(ctx.Mem)
				if curSplit == splitRetired {
					// Retired between the kind check above and this load;
					// adopted now, it would pass every later validation.
					cur = s.node(cur.next(s, level, ctx.Mem))
					continue
				}
				k0 := cur.key0(s, ctx.Mem)
				if k0 <= key {
					if seeded {
						if hops++; hops > hintHopBudget {
							// The structure grew far past the hint; a cold
							// descent is cheaper than crawling level 0/1.
							ctx.Hints.Drop(key >> hintShift)
							ctx.Hints.Fallback++
							useHint = false
							res = traverseResult{keyIndex: -1, levelFound: -1}
							continue outer
						}
					}
					res.splitCount = curSplit
					if k0 == key && res.levelFound < 0 {
						res.keyIndex = 0
						res.levelFound = level
					}
					pred = cur
					cur = s.node(pred.next(s, level, ctx.Mem))
					if s.foresight {
						// Foresight: the next candidate's address is now
						// known, so its header line fetch can overlap the
						// work of examining it (charged at the cheap
						// PrefetchPenalty instead of a full load miss).
						cur.prefetchHeader(ctx.Mem)
					}
					continue
				}
				break
			}
			preds[level] = pred.ptr
			succs[level] = cur.ptr
		}
		if s.foresight && pred.ptr != s.head {
			// pred is now the covering data node; warm its key block while
			// the upper-level prefill and hint bookkeeping below run, so
			// the in-node scan that follows starts from a resident line.
			pred.prefetchKeys(s, ctx.Mem)
		}
		for level := startLevel + 1; level < s.maxHeight; level++ {
			preds[level] = s.head
			succs[level] = s.tail
		}
		if res.keyIndex < 0 {
			// First keys did not match: scan the covering node's
			// internal keys once, at the bottom (Function 8).
			if preds[0] != s.head {
				if idx := s.scanInternalKeys(ctx, s.node(preds[0]), key); idx >= 0 {
					res.keyIndex = idx
					res.levelFound = 0
				}
			}
		}
		res.found = res.keyIndex >= 0
		if s.hints && preds[0] != s.head {
			s.hintRecord(ctx, key, preds[0])
		}
		return res
	}
}

// scanInternalKeys finds key within a node (Function 8): it bulk-loads
// the key block once and searches the snapshot (blocksearch.go). When
// the sorted option is on, the sorted prefix left by the last split is
// binary searched before the unsorted overflow is scanned linearly — the
// BzTree-style lookup the paper names as future work.
func (s *SkipList) scanInternalKeys(ctx *exec.Ctx, n nodeRef, key uint64) int {
	sorted := 0
	if s.sorted {
		sorted = metaSorted(n.meta(ctx.Mem))
	}
	buf := ctx.GetBlock(s.keysPerNode)
	n.keyBlock(s, buf, ctx.Mem)
	idx, probed := searchBlock(buf, key, sorted)
	ctx.PutBlock(buf)
	ctx.Path.KeysProbed += uint64(probed)
	return idx
}

// checkForRecovery implements Function 10 for a node already known to
// carry a stale epoch. It returns true when a repair was performed (the
// caller restarts its traversal).
func (s *SkipList) checkForRecovery(ctx *exec.Ctx, level int, cur nodeRef, recoveriesDone *int) bool {
	curEpoch := s.a.Clock().Current()
	nodeEpoch := cur.epoch(ctx.Mem)
	if nodeEpoch == curEpoch {
		return false
	}
	lockWord := cur.lockWord(ctx.Mem)
	// A write-locked node from a dead epoch is an interrupted split and
	// must be repaired on sight; dead reader counts need no explicit
	// drain — the epoch embedded in the lock word makes the next locker
	// discard them atomically (see node.go).
	recoveryNeeded := lockWord&splitWr != 0 && lockEpoch(lockWord) != curEpoch
	if s.budget >= 0 && *recoveriesDone >= s.budget && !recoveryNeeded {
		// Defer this node's (tower) repair to a later operation to avoid
		// post-recovery throughput collapse (§4.4.1).
		return false
	}
	if !cur.pool.CAS(cur.off+offEpoch, nodeEpoch, curEpoch, ctx.Mem) {
		// Another thread claimed the node; it will repair it.
		return false
	}
	cur.pool.Persist(cur.off+offEpoch, 1, ctx.Mem)
	s.recoveries.claims.Add(1)
	s.checkForNodeSplitRecovery(ctx, cur)
	s.checkForInsertRecovery(ctx, level, cur)
	*recoveriesDone++
	return true
}

// checkForNodeSplitRecovery implements Function 11: if the node is still
// write-locked by a thread from a dead epoch, the split either copied its
// upper keys into a (linked) successor or failed before linking. Either
// way, erasing every key duplicated in the successor and tombstoning
// half-erased slots returns the node to a consistent state, after which
// the lock is released.
func (s *SkipList) checkForNodeSplitRecovery(ctx *exec.Ctx, cur nodeRef) {
	w := cur.lockWord(ctx.Mem)
	if w&splitWr == 0 || lockEpoch(w) == s.a.Clock().Current() {
		// Not write-locked, or write-locked by a live splitter in the
		// current epoch (possible when this node's own epoch claim was
		// budget-deferred earlier): only a dead epoch's writer bit means
		// an interrupted split.
		return
	}
	// The duplicate check needs the successor's keys K times, so they
	// are snapshotted once. The check is best-effort against concurrent
	// succ inserts, and erasing is always safe: a key seen in succ stays
	// owned by succ.
	var succKeys []uint64
	if succPtr := cur.next(s, 0, ctx.Mem); !succPtr.IsNull() {
		succKeys = ctx.GetBlock(s.keysPerNode)
		s.node(succPtr).keyBlock(s, succKeys, ctx.Mem)
		defer ctx.PutBlock(succKeys)
	}
	for i := 0; i < s.keysPerNode; i++ {
		k := cur.key(s, i, ctx.Mem)
		if k == keyEmpty {
			// A slot whose key was erased but whose value write may not
			// have completed: finish the erase.
			cur.pool.Store(cur.off+s.valOff(i), Tombstone, ctx.Mem)
			continue
		}
		if slices.Contains(succKeys, k) {
			cur.pool.Store(cur.off+s.keyOff(i), keyEmpty, ctx.Mem)
			cur.pool.Store(cur.off+s.valOff(i), Tombstone, ctx.Mem)
		}
	}
	// The sorted prefix may have been invalidated by the erases; fall
	// back to linear scans for this node.
	if s.sorted {
		h := metaHeight(cur.meta(ctx.Mem))
		cur.pool.Store(cur.off+offMeta, metaWord(h, 0), ctx.Mem)
	}
	cur.persistAll(s, ctx.Mem)
	cur.writeUnlock(s.a.Clock().Current(), ctx.Mem)
	s.recoveries.splits.Add(1)
}

// checkForInsertRecovery implements Function 12: a stale node first met
// at a level below its top was probably abandoned mid-tower-build;
// complete the build. linkHigherLevels is a no-op for levels already
// linked, so false positives (a fully linked node merely encountered low
// on the search path) are harmless.
func (s *SkipList) checkForInsertRecovery(ctx *exec.Ctx, level int, cur nodeRef) {
	h := cur.height(ctx.Mem)
	if h <= level+1 {
		return
	}
	if cur.ptr == s.head || cur.ptr == s.tail {
		return
	}
	s.linkHigherLevels(ctx, cur, level+1, h)
	s.recoveries.inserts.Add(1)
}

// linkTraverse is the strict-predecessor variant of traverse used for
// tower building: preds hold the last node with first key strictly below
// key, succs the first node with first key >= key (possibly the node
// being linked itself, which signals "already linked at this level"). It
// performs no recovery — it is called from within recovery.
func (s *SkipList) linkTraverse(ctx *exec.Ctx, key uint64, preds, succs []riv.Ptr) {
	pred := s.node(s.head)
	for level := s.maxHeight - 1; level >= 0; level-- {
		cur := s.node(pred.next(s, level, ctx.Mem))
		if s.foresight {
			cur.prefetchHeader(ctx.Mem)
		}
		for {
			ctx.Path.NodesVisited++
			if s.reclaimOn && cur.kind(ctx.Mem) == alloc.KindRetired {
				// Walk through retired nodes without recording them: a
				// CAS against a victim's marked next word can never
				// succeed, so adopting one as pred would spin, and
				// recording one as succ would link a new node to memory
				// about to be freed.
				cur = s.node(cur.next(s, level, ctx.Mem))
				continue
			}
			if cur.key0(s, ctx.Mem) < key {
				pred = cur
				cur = s.node(pred.next(s, level, ctx.Mem))
				if s.foresight {
					cur.prefetchHeader(ctx.Mem)
				}
				continue
			}
			break
		}
		preds[level] = pred.ptr
		succs[level] = cur.ptr
	}
}

// linkHigherLevels implements Function 17 (with Function 18's pointer
// population folded in): link the node into levels [from, height). It is
// idempotent — levels where the node is already present are skipped — so
// it serves both fresh inserts and insert recovery.
func (s *SkipList) linkHigherLevels(ctx *exec.Ctx, n nodeRef, from, height int) {
	key := n.key0(s, ctx.Mem)
	// A second tower pair from the free list: this can run re-entrantly
	// under a traversal that still holds its own pair (insert recovery).
	t := ctx.GetTowers(s.maxHeight)
	defer ctx.PutTowers(t)
	preds, succs := t.Preds, t.Succs
	s.linkTraverse(ctx, key, preds, succs)
	if h := int32(height - 1); h > s.topHint.Load() {
		// Grow the hint first so concurrent traversals cannot miss the
		// levels being linked below.
		for {
			cur := s.topHint.Load()
			if h <= cur || s.topHint.CompareAndSwap(cur, h) {
				break
			}
		}
	}
	for level := from; level < height; level++ {
		for {
			if succs[level] == n.ptr {
				break // already linked at this level
			}
			if s.reclaimOn {
				// Hold the node's lock shared across the link: the store
				// into n's next word below would otherwise race the
				// sweeper's retirement marks (a plain store wipes the mark
				// and re-publishes a victim). Retirement takes the lock
				// exclusive, so under the read lock a KindNode stays one;
				// once the node is retired the rest of its tower is moot.
				if !n.readLock(s.a.Clock().Current(), ctx.Mem) {
					if n.kind(ctx.Mem) == alloc.KindRetired {
						return
					}
					// A splitter holds the node; refresh and retry.
					s.linkTraverse(ctx, key, preds, succs)
					continue
				}
				if n.kind(ctx.Mem) == alloc.KindRetired {
					n.readUnlock(ctx.Mem)
					return
				}
			}
			pred := s.node(preds[level])
			succ := succs[level]
			// Point the node at its successor first, persist, then swing
			// the predecessor. Persisting lower levels before higher ones
			// is required for recoverability (Function 17's comment).
			n.setNext(s, level, succ, ctx.Mem)
			n.persistNext(s, level, ctx.Mem)
			linked := pred.casNext(s, level, succ, n.ptr, ctx.Mem)
			if s.reclaimOn {
				n.readUnlock(ctx.Mem)
			}
			if linked {
				pred.persistNext(s, level, ctx.Mem)
				break
			}
			// World moved: refresh preds/succs and retry this level.
			s.linkTraverse(ctx, key, preds, succs)
		}
	}
}
