// Package exec carries the per-worker execution context threaded through
// every data-structure operation.
//
// The paper's pseudocode assumes each function has ambient access to the
// calling thread's unique threadID, the NUMA node it runs on, and the
// current failure-free epochID. Go has no thread-local storage (and
// goroutines migrate between OS threads anyway), so the reproduction
// makes the context explicit: every worker owns a *Ctx and passes it down.
package exec

import (
	"math/rand"

	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// Ctx identifies one logical worker thread.
//
// ThreadID is the stable identity used for per-thread allocation logs; a
// worker that "returns after a crash" reuses its ThreadID, which is the
// assumption UPSkipList's deferred allocation recovery is built on
// (§4.1.4). Node is the simulated NUMA node the worker is pinned to.
type Ctx struct {
	ThreadID int
	Node     int
	// Mem is the worker's memory accessor: it carries the NUMA node and
	// the simulated per-worker cache-line state for the cost model.
	Mem *pmem.Acc
	// Rand is the worker-private PRNG used for skip-list height draws.
	Rand *rand.Rand
	// Hints is the worker-private volatile traversal-hint cache. It lives
	// here, not in any pool, because a hint is only ever a performance
	// shortcut: anything volatile may vanish at a crash, so nothing
	// recoverable may depend on it.
	Hints HintCache
	// Batch is a reusable coalesced-persist batch for multi-line flushes
	// (node initialization, split publishing).
	Batch pmem.Batch
	// Deferred switches per-operation commit persists (value publication
	// and key-slot claims) into group-commit mode: instead of paying a
	// flush+fence per operation, the touched lines accumulate in Group and
	// the batch applier drains them with one trailing fence. Structural
	// persists (node initialization, tower links, split publication) are
	// never deferred — recovery depends on their ordering. Only batch
	// appliers set this; it must be false again before the context runs
	// ordinary operations.
	Deferred bool
	// Group collects the commit lines deferred while Deferred is set. It
	// is separate from Batch because the structural paths flush Batch
	// mid-operation, which would prematurely drain a shared group.
	Group pmem.Batch
	// Pins is the operation nesting depth for this worker. Public
	// skip-list operations stamp the worker's reclamation-era slot on
	// entry and clear it on exit; the depth counter makes that re-entrant
	// (Contains calls Get, batch application calls the point ops), so
	// only the outermost operation touches the epoch.Domain and publishes
	// Mem's ledger. Like Hints, this is volatile per-worker state with no
	// recovery obligations.
	Pins int
	// Settle counts the operations finished, since this worker last
	// settled one, on lists whose retire limbo held blocks (skiplist).
	Settle int
	// Path accumulates per-worker traversal-locality counters (see
	// PathStats). Like Hints, it is single-owner volatile state: no
	// atomics, no recovery obligations, surfaced through Worker.Stats.
	Path PathStats
	// towers is a free list of preds/succs scratch pairs. It is a list
	// rather than a single buffer because recovery helpers re-enter the
	// traversal path (traverse -> checkForInsertRecovery -> tower link)
	// while the outer operation still holds its pair.
	towers []*Towers
	// blocks is a free list of word buffers for bulk key/value-block
	// loads, mirroring towers: recovery paths nest traversals while the
	// outer operation may hold a snapshot buffer.
	blocks [][]uint64
}

// PathStats counts the memory work a worker's traversals performed —
// the cache-conscious-traversal observability the rent table and the
// traced benchmark record. NodesVisited counts every node a descent inspected (adopted
// as pred or rejected, across all levels, including link traversals);
// KeysProbed counts key slots fetched during in-node searches and
// range-scan snapshots. Divided by Ops they give the nodes-visited-per-op
// and keys-probed-per-op figures.
type PathStats struct {
	NodesVisited uint64
	KeysProbed   uint64
}

// Towers is a reusable preds/succs pair for skip-list traversals. Reusing
// the pair across operations keeps steady-state point ops allocation-free.
type Towers struct {
	Preds []riv.Ptr
	Succs []riv.Ptr
}

// NewCtx returns a context for the given worker, pinned to the given
// node, with a deterministic private PRNG seeded from the thread ID.
func NewCtx(threadID, node int) *Ctx {
	return &Ctx{
		ThreadID: threadID,
		Node:     node,
		Mem:      pmem.NewAcc(node),
		Rand:     rand.New(rand.NewSource(int64(threadID)*0x5851F42D4C957F2D + 1)),
	}
}

// GetTowers returns a preds/succs pair with the given number of levels,
// reusing a previously returned pair when one is free. Contents are
// unspecified; the caller must hand the pair back with PutTowers. After a
// few operations the free list is as deep as the worst-case re-entrant
// nesting and Get/Put stop allocating entirely.
func (c *Ctx) GetTowers(levels int) *Towers {
	if n := len(c.towers) - 1; n >= 0 {
		t := c.towers[n]
		c.towers[n] = nil
		c.towers = c.towers[:n]
		if cap(t.Preds) < levels {
			t.Preds = make([]riv.Ptr, levels)
			t.Succs = make([]riv.Ptr, levels)
		} else {
			t.Preds = t.Preds[:levels]
			t.Succs = t.Succs[:levels]
		}
		return t
	}
	return &Towers{Preds: make([]riv.Ptr, levels), Succs: make([]riv.Ptr, levels)}
}

// PutTowers returns a pair obtained from GetTowers to the free list.
func (c *Ctx) PutTowers(t *Towers) {
	c.towers = append(c.towers, t)
}

// GetBlock returns a word buffer of length n for a bulk block load,
// reusing a previously returned buffer when one is free. Contents are
// unspecified; hand the buffer back with PutBlock. Like GetTowers, the
// free list reaches the worst-case re-entrant nesting depth after a few
// operations and stops allocating.
func (c *Ctx) GetBlock(n int) []uint64 {
	if m := len(c.blocks) - 1; m >= 0 {
		b := c.blocks[m]
		c.blocks[m] = nil
		c.blocks = c.blocks[:m]
		if cap(b) < n {
			return make([]uint64, n)
		}
		return b[:n]
	}
	return make([]uint64, n)
}

// PutBlock returns a buffer obtained from GetBlock to the free list.
func (c *Ctx) PutBlock(b []uint64) {
	c.blocks = append(c.blocks, b)
}

// HintSlots is the number of direct-mapped entries in a HintCache:
// 4096 slots x 16 bytes = 64 KiB per worker, comfortably DRAM-resident.
// The size is set by the skew the table must hold. Under YCSB's
// scrambled Zipfian (theta 0.99, 200 K keys) the 512 hottest keys take
// 52 % of requests, but 512 direct-mapped slots seeded only 37 % of
// traversals: the hot keys collide, and every collision evicts. At 4096
// slots the top 4096 keys take 68 % of requests and 60 % of traversals
// start from a hint.
const HintSlots = 4096

// hintSlot is one entry: the tag it was recorded under and the raw
// riv.Ptr word of the hinted node. The level a seeded descent starts at
// is not stored: it follows from the node's tower height, which the
// seed's validation reads from the node's header line anyway.
type hintSlot struct {
	tag uint64 // key prefix + 1; 0 marks an empty slot
	val uint64 // raw riv.Ptr word of the hinted predecessor
}

// HintCache is a direct-mapped volatile cache of recently observed
// traversal predecessors, keyed by a key prefix. It belongs to exactly one
// worker, so it needs no synchronization.
//
// The cache never affects correctness: every entry must be re-validated
// against the live node before use, and the (owner, gen) stamp lets the
// data structure wipe all entries wholesale when node memory may have been
// reclaimed (compaction) or when the context is reused against a different
// structure or a reopened one.
//
// The table is allocated by the first Put. Contexts that never record a
// hint — those Open, Reopen, Save and Compact create for their own walks,
// and a snapshot's until it is read — never allocate or zero it, and
// every other method treats a missing table as an empty one.
type HintCache struct {
	owner any
	gen   uint64
	slots *[HintSlots]hintSlot

	// Plain per-worker counters (the cache is single-owner, so no atomics):
	// Seeded counts traversals that started from a validated hint, Missed
	// counts lookups with no usable entry, Fallback counts seeded
	// traversals that had to restart from the head after the hint proved
	// stale mid-descent.
	Seeded   uint64
	Missed   uint64
	Fallback uint64
}

// Validate checks that the cache's contents were recorded against the
// given owner and generation; on mismatch all entries are dropped and the
// stamp is updated. Callers invoke this once per operation before reading
// any hint.
func (h *HintCache) Validate(owner any, gen uint64) {
	if h.owner != owner || h.gen != gen {
		if h.slots != nil {
			clear(h.slots[:])
		}
		h.owner = owner
		h.gen = gen
	}
}

// Get looks up the hint recorded for tag. ok is false on a miss.
func (h *HintCache) Get(tag uint64) (val uint64, ok bool) {
	if h.slots == nil {
		return 0, false
	}
	s := &h.slots[tag&(HintSlots-1)]
	if s.tag != tag+1 {
		return 0, false
	}
	return s.val, true
}

// Put records a hint for tag, evicting whatever shared its slot. The
// first Put allocates the table.
func (h *HintCache) Put(tag, val uint64) {
	if h.slots == nil {
		h.slots = new([HintSlots]hintSlot)
	}
	h.slots[tag&(HintSlots-1)] = hintSlot{tag: tag + 1, val: val}
}

// Drop invalidates a single entry (used after a hint fails validation, so
// the same stale pointer is not retried on the next operation).
func (h *HintCache) Drop(tag uint64) {
	if h.slots == nil {
		return
	}
	s := &h.slots[tag&(HintSlots-1)]
	if s.tag == tag+1 {
		*s = hintSlot{}
	}
}

// Reset clears the cache and its ownership stamp.
func (h *HintCache) Reset() {
	if h.slots != nil {
		clear(h.slots[:])
	}
	h.owner = nil
	h.gen = 0
}

// GeometricHeight draws a tower height in [1, max] from the geometric
// distribution with p = 0.5 used by Pugh's original skip list.
func (c *Ctx) GeometricHeight(max int) int {
	h := 1
	for h < max && c.Rand.Int63()&1 == 0 {
		h++
	}
	return h
}

// GeometricHeightB draws a tower height in [1, max] where each level
// promotes with probability 1/branch — the sparse-tower bias of
// B-Skiplist-shaped structures: with fat multi-key bottom nodes, fewer
// and shorter towers keep the whole index portion cache-resident.
// branch <= 2 reproduces GeometricHeight's classic p = 1/2 draw (and its
// exact Rand consumption, so height sequences stay comparable).
func (c *Ctx) GeometricHeightB(max, branch int) int {
	if branch <= 2 {
		return c.GeometricHeight(max)
	}
	b := int64(branch)
	h := 1
	for h < max && c.Rand.Int63n(b) == 0 {
		h++
	}
	return h
}
