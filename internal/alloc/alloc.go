// Package alloc implements the paper's recoverable memory-management
// stack (§4.3): coarse-grained chunk allocation within each pool,
// fine-grained fixed-size block allocation from per-arena lock-free free
// lists, and the per-thread allocation logging that defers crash recovery
// of lost allocations to the next allocation by the same thread ID
// (Functions 3–6 of the paper).
//
// # Pool layout
//
// Every pool managed by this package is formatted as:
//
//	word 0      magic
//	word 1      format version
//	word 2      chunkWords
//	word 3      maxChunks
//	word 4      blockWords
//	word 5      numArenas
//	word 6      numLogs
//	word 7      chunkCount      (bump counter for coarse allocation)
//	word 8      rootWords
//	word 9      epoch           (failure-free epoch clock; pool 0 is
//	                            authoritative for the whole store)
//	...         reserved to the next cache line
//	arenas      numArenas cache lines of [head Ptr, tail Ptr, ...]
//	logs        numLogs cache lines (one per thread ID), see logOff
//	root        rootWords reserved for the client data structure
//	chunks      chunk i occupies [chunkSpace + i*chunkWords, ...)
//
// Chunk bases are deterministic (bump allocation), standing in for the
// paper's libpmemobj chunk objects; the riv chunk resolver recomputes
// them lazily after a restart, which is the paper's deferred rebuild of
// the DRAM address cache (§4.3.2).
//
// # Block life cycle
//
// A block is either free (kind word = 0, linked into an arena free list
// through its next word) or live (kind word = 1, owned by the client,
// typically initialized as a skip-list node). Allocation pops from the
// arena head; deallocation converts the block back and appends at the
// arena tail (Function 6). The free list never becomes empty: the head
// block is never popped while it is also the tail, and a fresh chunk is
// appended when the list runs low.
//
// # Crash recovery
//
// Before the pop CAS, the allocating thread persists a log entry naming
// the block, the key it will hold, and the bottom-level predecessor it
// will be linked after (Function 3). On the thread's next allocation
// after a crash, a stale-epoch log triggers a reachability check via the
// client-installed callback; unreachable blocks are reclaimed with
// Free, which is idempotent. Recovery work is therefore O(threads), not
// O(structure size).
//
// # Slab chunks
//
// The coarse tier also serves the variable-size value arena
// (internal/slab): ClaimSlabChunk hands it a whole chunk, which it bump-
// carves into extents of contiguous blocks. Such a chunk is never chained
// onto a free list; its first cache line says so — kind KindSlab,
// SlabChunkMagic, and the bump cursor — and every block-strided scan in
// this package reads that line first, skipping the chunk (its words are
// value bytes, not kind words) or, in Census, accounting it from the
// cursor.
//
// A crash between claiming a chunk and appending its block chain to the
// free list can leak at most one chunk per crashed thread; the paper
// reclaims these through the same next-operation cleanup, and this
// implementation offers ReclaimOrphanChunks for a quiesced post-restart
// sweep that restores the no-leak guarantee.
package alloc

import (
	"errors"
	"fmt"
	"sort"

	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

const (
	magic   = 0x5550534C414C4F43 // "UPSLALOC"
	version = 1

	hdrMagic      = 0
	hdrVersion    = 1
	hdrChunkWords = 2
	hdrMaxChunks  = 3
	hdrBlockWords = 4
	hdrNumArenas  = 5
	hdrNumLogs    = 6
	hdrChunkCount = 7
	hdrRootWords  = 8
	// EpochOff is the pool word holding the failure-free epoch clock.
	EpochOff = 9
	hdrLines = 2 // header occupies two cache lines (16 words)
)

// Block word layout. These offsets are shared with the client: a live
// block keeps kind and epoch at the same offsets so that recovery can
// classify any block it encounters.
const (
	// BlockKind distinguishes free blocks (KindFree) from live objects
	// (KindNode).
	BlockKind = 0
	// BlockEpoch is the failure-free epoch the block was last created,
	// freed, or repaired in.
	BlockEpoch = 1
	// BlockNext is the free-list successor (riv.Ptr) while the block is
	// free. Live objects reuse the slot for their own payload.
	BlockNext = 2
	// BlockPayload is the first word available to live objects beyond the
	// kind and epoch words.
	BlockPayload = 2
)

// Block kinds.
const (
	KindFree = 0
	KindNode = 1
	// KindRetired marks a node that online reclamation has withdrawn from
	// the abstract set but not yet returned to a free list: it is (or is
	// about to be) unlinked, sitting on a volatile limbo list until the
	// grace period expires. Traversals skip retired nodes; Free converts
	// them exactly like live nodes. After a crash, retired blocks are
	// unreachable (the retire intent log covers the unlink window) and are
	// re-discovered by RetiredBlocks and freed.
	KindRetired = 2
	// KindLegacyVersion is reserved: images written while the MVCC version
	// log lived on pool blocks may hold blocks of this kind, orphans by
	// construction (the log was volatile). Nothing stamps it any more;
	// RetiredBlocks returns such blocks with the retired ones, so the
	// startup scan frees them on sight, and the allocation log reclaims
	// one like any other unreachable block.
	KindLegacyVersion = 3
	// KindSlab marks the header block of a chunk owned whole by the slab
	// arena (see ClaimSlabChunk). No block handed out by Alloc ever carries
	// it, so the allocation log never names one.
	KindSlab = 4
)

// Slab chunk header: the words of a slab-owned chunk's first cache line,
// after the kind and epoch words every block starts with. The arena
// advances the cursor (and persists it) as it carves extents.
const (
	// SlabChunkMagicOff holds SlabChunkMagic.
	SlabChunkMagicOff = 2
	// SlabChunkCursorOff holds the number of blocks carved so far, the
	// header's own included: blocks below it are the arena's, blocks from
	// it to the chunk's end are unused.
	SlabChunkCursorOff = 3
	// SlabChunkTagOff is zero in a chunk claimed now (the chunk reads as
	// zero past the words ClaimSlabChunk writes). In an image written
	// while the arena kept its free-list heads in the pools, one chunk
	// counts them here; they follow the header line.
	SlabChunkTagOff = 4

	SlabChunkMagic = 0x5550534C45585431 // "UPSLEXT1"
)

// Log entry word layout (one cache line per thread ID).
const (
	logState = 0 // 0 = empty, 1 = allocation attempt recorded
	logEpoch = 1
	logBlock = 2
	logPred  = 3
	logKey   = 4
)

// Errors.
var (
	ErrNotFormatted = errors.New("alloc: pool is not formatted")
	ErrBadConfig    = errors.New("alloc: invalid configuration")
	ErrPoolFull     = errors.New("alloc: pool has no free chunks left")
	ErrNoPool       = errors.New("alloc: no pool attached for requested node")
)

// Config describes the geometry of a formatted pool.
type Config struct {
	ChunkWords uint64 // words per chunk (multiple of the block size)
	MaxChunks  uint64
	BlockWords uint64 // words per block (rounded up to a cache line)
	NumArenas  int    // free lists per pool (contention reduction)
	NumLogs    int    // thread-ID slots for allocation logs
	RootWords  uint64 // client root area size
	// Preallocate selects the paper's mode 1 (§4.3.2): chunks are carved
	// into free blocks at Format time and distributed round-robin over the
	// arenas, so the structure's nodes need no coarse-grained allocation
	// during operation. Half of MaxChunks is carved this way; the other
	// half stays unclaimed, because the value arena takes its space as
	// whole chunks (ClaimSlabChunk) and blocks already on a free list can
	// never be joined back into one. The default is mode 2: chunks are
	// provisioned on demand as the structure grows.
	Preallocate bool
}

// DefaultConfig returns a small-footprint geometry suitable for tests.
// Benchmarks override it (the paper uses 4 MiB chunks).
func DefaultConfig(blockWords uint64) Config {
	return Config{
		ChunkWords: 64 * 1024,
		MaxChunks:  256,
		BlockWords: blockWords,
		NumArenas:  4,
		NumLogs:    128,
		RootWords:  64,
	}
}

func (c Config) validate() error {
	if c.BlockWords < pmem.LineWords || c.ChunkWords < c.BlockWords ||
		c.NumArenas < 1 || c.NumLogs < 1 || c.MaxChunks < 1 || c.MaxChunks > riv.MaxChunks {
		return ErrBadConfig
	}
	return nil
}

// PoolAllocator manages the block space of one formatted pool.
type PoolAllocator struct {
	pool *pmem.Pool
	cfg  Config

	arenaBase  uint64 // word offset of first arena line
	logBase    uint64 // word offset of first log line
	rootBase   uint64 // word offset of client root area
	chunkSpace uint64 // word offset of chunk 0
}

func alignLine(off uint64) uint64 {
	return (off + pmem.LineWords - 1) &^ uint64(pmem.LineWords-1)
}

// layout computes the derived offsets from a config.
func layout(cfg Config) (arenaBase, logBase, rootBase, chunkSpace uint64) {
	arenaBase = uint64(hdrLines * pmem.LineWords)
	logBase = arenaBase + uint64(cfg.NumArenas)*pmem.LineWords
	rootBase = logBase + uint64(cfg.NumLogs)*pmem.LineWords
	chunkSpace = alignLine(rootBase + cfg.RootWords)
	return
}

// MinPoolWords returns the smallest pool size (in words) that can host
// the given config with at least minChunks chunks.
func MinPoolWords(cfg Config, minChunks uint64) uint64 {
	_, _, _, chunkSpace := layout(cfg)
	return chunkSpace + minChunks*cfg.ChunkWords
}

// Format initializes a pool with the given geometry and seeds every arena
// with one chunk's worth of free blocks so the free lists are never
// empty. All metadata is persisted before Format returns.
func Format(pool *pmem.Pool, cfg Config) (*PoolAllocator, error) {
	cfg.BlockWords = alignLine(cfg.BlockWords)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	arenaBase, logBase, rootBase, chunkSpace := layout(cfg)
	if err := pool.CheckRange(chunkSpace, cfg.ChunkWords*uint64(cfg.NumArenas)); err != nil {
		return nil, fmt.Errorf("alloc: pool too small for one chunk per arena: %w", err)
	}

	pool.Store(hdrChunkWords, cfg.ChunkWords, nil)
	pool.Store(hdrMaxChunks, cfg.MaxChunks, nil)
	pool.Store(hdrBlockWords, cfg.BlockWords, nil)
	pool.Store(hdrNumArenas, uint64(cfg.NumArenas), nil)
	pool.Store(hdrNumLogs, uint64(cfg.NumLogs), nil)
	pool.Store(hdrChunkCount, 0, nil)
	pool.Store(hdrRootWords, cfg.RootWords, nil)
	pool.Store(hdrVersion, version, nil)

	pa := &PoolAllocator{
		pool:      pool,
		cfg:       cfg,
		arenaBase: arenaBase, logBase: logBase, rootBase: rootBase, chunkSpace: chunkSpace,
	}

	// Seed the arenas: one chunk each in mode 2, or half of all chunks
	// (as far as they fit), round-robin, in mode 1 (Preallocate).
	chunksToSeed := uint64(cfg.NumArenas)
	if cfg.Preallocate {
		chunksToSeed = max(chunksToSeed, cfg.MaxChunks/2)
	}
	for c := uint64(0); c < chunksToSeed; c++ {
		a := int(c) % cfg.NumArenas
		idx, base, err := pa.claimChunk()
		if err != nil {
			if cfg.Preallocate && c >= uint64(cfg.NumArenas) {
				break // pool smaller than MaxChunks: seeded what fits
			}
			return nil, err
		}
		first, last := pa.buildChunkChain(idx, base, nil)
		if riv.FromWord(pool.Load(pa.arenaHeadOff(a), nil)).IsNull() {
			pool.Store(pa.arenaHeadOff(a), first.Word(), nil)
			pool.Store(pa.arenaTailOff(a), last.Word(), nil)
			pool.Persist(pa.arenaHeadOff(a), 2, nil)
		} else {
			// Append the chain to the arena's existing list. Format is
			// single-threaded, so plain stores suffice.
			tPtr := riv.FromWord(pool.Load(pa.arenaTailOff(a), nil))
			tp, to := resolveFormat(pa, tPtr)
			tp.Store(to+BlockNext, first.Word(), nil)
			tp.Persist(to+BlockNext, 1, nil)
			pool.Store(pa.arenaTailOff(a), last.Word(), nil)
			pool.Persist(pa.arenaTailOff(a), 1, nil)
		}
	}

	// Magic last: a torn format is not mistaken for a valid pool.
	pool.Persist(0, hdrLines*pmem.LineWords, nil)
	pool.Store(hdrMagic, magic, nil)
	pool.Persist(hdrMagic, 1, nil)
	return pa, nil
}

// resolveFormat resolves a pointer during Format, before any riv.Space
// exists: Format only creates pointers into this same pool, whose chunk
// bases are deterministic.
func resolveFormat(pa *PoolAllocator, p riv.Ptr) (*pmem.Pool, uint64) {
	return pa.pool, pa.ChunkBase(p.Chunk()) + uint64(p.Offset())
}

// Attach opens an already formatted pool.
func Attach(pool *pmem.Pool) (*PoolAllocator, error) {
	if pool.Load(hdrMagic, nil) != magic || pool.Load(hdrVersion, nil) != version {
		return nil, ErrNotFormatted
	}
	cfg := Config{
		ChunkWords: pool.Load(hdrChunkWords, nil),
		MaxChunks:  pool.Load(hdrMaxChunks, nil),
		BlockWords: pool.Load(hdrBlockWords, nil),
		NumArenas:  int(pool.Load(hdrNumArenas, nil)),
		NumLogs:    int(pool.Load(hdrNumLogs, nil)),
		RootWords:  pool.Load(hdrRootWords, nil),
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The header is input: every offset derived from it must stay inside
	// the pool. Bounding each term by the pool size first keeps the
	// layout sums from overflowing.
	size, chunks := pool.Size(), pool.Load(hdrChunkCount, nil)
	if uint64(cfg.NumArenas) > size || uint64(cfg.NumLogs) > size || cfg.RootWords > size || chunks > cfg.MaxChunks {
		return nil, fmt.Errorf("%w: header layout does not fit a %d-word pool", ErrBadConfig, size)
	}
	arenaBase, logBase, rootBase, chunkSpace := layout(cfg)
	if chunkSpace+chunks*cfg.ChunkWords > size {
		return nil, fmt.Errorf("%w: %d chunks of %d words from word %d overrun a %d-word pool",
			ErrBadConfig, chunks, cfg.ChunkWords, chunkSpace, size)
	}
	return &PoolAllocator{
		pool: pool, cfg: cfg,
		arenaBase: arenaBase, logBase: logBase, rootBase: rootBase, chunkSpace: chunkSpace,
	}, nil
}

// Pool returns the underlying pmem pool.
func (pa *PoolAllocator) Pool() *pmem.Pool { return pa.pool }

// Config returns the pool geometry.
func (pa *PoolAllocator) Config() Config { return pa.cfg }

// RootOff returns the word offset of the client root area.
func (pa *PoolAllocator) RootOff() uint64 { return pa.rootBase }

// ChunkBase returns the base offset of chunk idx, or 0 if unallocated.
// It implements the riv.ChunkResolver contract for this pool.
func (pa *PoolAllocator) ChunkBase(idx uint16) uint64 {
	if uint64(idx) >= pa.pool.Load(hdrChunkCount, nil) {
		return 0
	}
	return pa.chunkSpace + uint64(idx)*pa.cfg.ChunkWords
}

func (pa *PoolAllocator) arenaHeadOff(arena int) uint64 {
	return pa.arenaBase + uint64(arena)*pmem.LineWords
}

func (pa *PoolAllocator) arenaTailOff(arena int) uint64 {
	return pa.arenaHeadOff(arena) + 1
}

func (pa *PoolAllocator) logOff(threadID int) uint64 {
	return pa.logBase + uint64(threadID%pa.cfg.NumLogs)*pmem.LineWords
}

// claimChunk bumps the chunk counter and returns the new chunk's index
// and base offset.
func (pa *PoolAllocator) claimChunk() (uint16, uint64, error) {
	for {
		cur := pa.pool.Load(hdrChunkCount, nil)
		if cur >= pa.cfg.MaxChunks {
			return 0, 0, ErrPoolFull
		}
		base := pa.chunkSpace + cur*pa.cfg.ChunkWords
		if err := pa.pool.CheckRange(base, pa.cfg.ChunkWords); err != nil {
			return 0, 0, ErrPoolFull
		}
		if pa.pool.CAS(hdrChunkCount, cur, cur+1, nil) {
			pa.pool.Persist(hdrChunkCount, 1, nil)
			return uint16(cur), base, nil
		}
	}
}

// buildChunkChain initializes every block in a chunk as free and links
// them into a chain, returning pointers to the first and last block. The
// chain is fully persisted.
func (pa *PoolAllocator) buildChunkChain(idx uint16, base uint64, node *pmem.Acc) (first, last riv.Ptr) {
	nBlocks := pa.cfg.ChunkWords / pa.cfg.BlockWords
	poolID := pa.pool.ID()
	for b := uint64(0); b < nBlocks; b++ {
		off := b * pa.cfg.BlockWords
		abs := base + off
		pa.pool.Store(abs+BlockKind, KindFree, node)
		pa.pool.Store(abs+BlockEpoch, pa.currentEpochWord(), node)
		if b+1 < nBlocks {
			pa.pool.Store(abs+BlockNext, riv.Make(poolID, idx, uint32(off+pa.cfg.BlockWords)).Word(), node)
		} else {
			pa.pool.Store(abs+BlockNext, riv.Null.Word(), node)
		}
	}
	pa.pool.Persist(base, nBlocks*pa.cfg.BlockWords, node)
	return riv.Make(poolID, idx, 0), riv.Make(poolID, idx, uint32((nBlocks-1)*pa.cfg.BlockWords))
}

// currentEpochWord reads this pool's epoch word; for non-authoritative
// pools the Allocator keeps it synchronized with the clock at attach.
func (pa *PoolAllocator) currentEpochWord() uint64 {
	return pa.pool.Load(EpochOff, nil)
}

// ReachabilityCheck reports whether block (logged with the given key and
// bottom-level predecessor) became reachable in the client structure.
// Installed by the client; see Function 3 lines 15–22 of the paper.
type ReachabilityCheck func(ctx *exec.Ctx, pred riv.Ptr, key uint64, block riv.Ptr) bool

// Allocator is the multi-pool facade combining per-pool allocators with
// the shared riv address space and the epoch clock.
type Allocator struct {
	space      *riv.Space
	clock      *epoch.Clock
	pools      map[uint16]*PoolAllocator
	nodePool   map[int]uint16 // NUMA node -> pool ID for allocation
	reachCheck ReachabilityCheck
}

// New creates an allocator over the given address space and clock.
func New(space *riv.Space, clock *epoch.Clock) *Allocator {
	a := &Allocator{
		space:    space,
		clock:    clock,
		pools:    make(map[uint16]*PoolAllocator),
		nodePool: make(map[int]uint16),
	}
	space.SetResolver(func(pool *pmem.Pool, chunk uint16) uint64 {
		if pa, ok := a.pools[pool.ID()]; ok {
			return pa.ChunkBase(chunk)
		}
		return 0
	})
	return a
}

// AttachPool registers a formatted pool, mapping the given NUMA node's
// allocations to it. Pass node -1 for "all nodes" (single-pool modes).
func (a *Allocator) AttachPool(pa *PoolAllocator, node int) {
	a.pools[pa.pool.ID()] = pa
	if node < 0 {
		a.nodePool[-1] = pa.pool.ID()
	} else {
		a.nodePool[node] = pa.pool.ID()
	}
	// Keep the pool's epoch word in step with the global clock so block
	// stamps compare correctly across pools.
	cur := a.clock.Current()
	if pa.pool.Load(EpochOff, nil) != cur {
		pa.pool.Store(EpochOff, cur, nil)
		pa.pool.Persist(EpochOff, 1, nil)
	}
}

// SetReachabilityCheck installs the client callback used by deferred
// allocation recovery.
func (a *Allocator) SetReachabilityCheck(f ReachabilityCheck) { a.reachCheck = f }

// Space returns the shared address space.
func (a *Allocator) Space() *riv.Space { return a.space }

// Clock returns the epoch clock.
func (a *Allocator) Clock() *epoch.Clock { return a.clock }

// PoolFor returns the pool allocator serving the given NUMA node.
func (a *Allocator) PoolFor(node int) (*PoolAllocator, error) {
	if id, ok := a.nodePool[node]; ok {
		return a.pools[id], nil
	}
	if id, ok := a.nodePool[-1]; ok {
		return a.pools[id], nil
	}
	return nil, ErrNoPool
}

// PoolByID returns the pool allocator with the given pool ID, or nil.
func (a *Allocator) PoolByID(id uint16) *PoolAllocator { return a.pools[id] }

// Pools returns all attached pool allocators, by ascending pool ID.
func (a *Allocator) Pools() []*PoolAllocator {
	out := make([]*PoolAllocator, 0, len(a.pools))
	for _, pa := range a.pools {
		out = append(out, pa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pool.ID() < out[j].pool.ID() })
	return out
}

// BlockWords returns the block size of the allocator's pools (all pools
// share one geometry).
func (a *Allocator) BlockWords() uint64 {
	for _, pa := range a.pools {
		return pa.cfg.BlockWords
	}
	return 0
}

// resolve maps a pointer to (pool, absolute offset) via the space.
func (a *Allocator) resolve(p riv.Ptr) (*pmem.Pool, uint64) { return a.space.Resolve(p) }

// Alloc claims a free block from the arena serving ctx, after logging the
// attempt per Function 3. pred and key describe where the new object will
// be linked, for post-crash reachability checking. The returned block has
// kind=KindNode and the current epoch stamped (and persisted); all other
// words are zero... in the free-list sense: the caller must initialize and
// persist its payload before publishing the block.
func (a *Allocator) Alloc(ctx *exec.Ctx, pred riv.Ptr, key uint64) (riv.Ptr, error) {
	pa, err := a.PoolFor(ctx.Node)
	if err != nil {
		return riv.Null, err
	}
	arena := ctx.ThreadID % pa.cfg.NumArenas
	headOff := pa.arenaHeadOff(arena)
	for {
		headW := pa.pool.Load(headOff, ctx.Mem)
		head := riv.FromWord(headW)
		hPool, hOff := a.resolve(head)
		nextW := hPool.Load(hOff+BlockNext, ctx.Mem)
		if riv.FromWord(nextW).IsNull() {
			// Free list down to its last block: provision a new chunk
			// (Function 4 line 35) and retry.
			if err := a.provisionChunk(ctx, pa, arena); err != nil {
				return riv.Null, err
			}
			continue
		}
		a.logChangeAttempt(ctx, pa, head, pred, key)
		if pa.pool.CAS(headOff, headW, nextW, ctx.Mem) {
			pa.pool.Persist(headOff, 1, ctx.Mem)
			// Claim the block: mark it live in the current epoch before
			// handing it to the client. A crash after the pop but before
			// client initialization is cleaned up via the log.
			hPool.Store(hOff+BlockKind, KindNode, ctx.Mem)
			hPool.Store(hOff+BlockEpoch, a.clock.Current(), ctx.Mem)
			hPool.Persist(hOff, 2, ctx.Mem)
			return head, nil
		}
	}
}

// provisionChunk claims a fresh chunk, builds its free chain, and appends
// the whole chain at the arena tail.
func (a *Allocator) provisionChunk(ctx *exec.Ctx, pa *PoolAllocator, arena int) error {
	idx, base, err := pa.claimChunk()
	if err != nil {
		return err
	}
	first, last := pa.buildChunkChain(idx, base, ctx.Mem)
	a.space.SetChunkBase(pa.pool.ID(), idx, base)
	a.linkChainAtTail(ctx, pa, arena, first, last)
	return nil
}

// ClaimSlabChunk claims a whole chunk from the pool serving ctx for the
// slab arena and formats its header with the first hdrBlocks blocks
// marked carved (the header block itself). The header is one cache line
// and is persisted before the pointer to the chunk's first word is
// returned: after a crash the chunk is either recognisably the arena's
// (SlabChunks finds it) or still all zero, which ReclaimOrphanChunks
// treats like any other chunk lost between claim and link. The rest of
// the chunk has never been written and reads as zero; the host maps it
// here (buildChunkChain's stores do the same for a node chunk), so that
// no page the arena carves later faults under the put that carves it.
func (a *Allocator) ClaimSlabChunk(ctx *exec.Ctx, hdrBlocks uint64) (riv.Ptr, error) {
	pa, err := a.PoolFor(ctx.Node)
	if err != nil {
		return riv.Null, err
	}
	idx, base, err := pa.claimChunk()
	if err != nil {
		return riv.Null, err
	}
	pa.pool.Populate(base, pa.cfg.ChunkWords)
	pa.pool.Store(base+BlockKind, KindSlab, ctx.Mem)
	pa.pool.Store(base+BlockEpoch, a.clock.Current(), ctx.Mem)
	pa.pool.Store(base+SlabChunkMagicOff, SlabChunkMagic, ctx.Mem)
	pa.pool.Store(base+SlabChunkCursorOff, hdrBlocks, ctx.Mem)
	pa.pool.Persist(base, pmem.LineWords, ctx.Mem)
	a.space.SetChunkBase(pa.pool.ID(), idx, base)
	return riv.Make(pa.pool.ID(), idx, 0), nil
}

// slabCursor reports whether chunk c is slab-owned and, if so, how many
// of its blocks the arena has carved.
func (pa *PoolAllocator) slabCursor(c uint64) (carved uint64, ok bool) {
	base := pa.chunkSpace + c*pa.cfg.ChunkWords
	if pa.pool.Load(base+BlockKind, nil) != KindSlab ||
		pa.pool.Load(base+SlabChunkMagicOff, nil) != SlabChunkMagic {
		return 0, false
	}
	return min(pa.pool.Load(base+SlabChunkCursorOff, nil), pa.cfg.ChunkWords/pa.cfg.BlockWords), true
}

// logChangeAttempt implements Function 3: check the previous log entry
// for an interrupted allocation from an earlier epoch, reclaim the block
// if it never became reachable, then record the new attempt.
func (a *Allocator) logChangeAttempt(ctx *exec.Ctx, pa *PoolAllocator, block, pred riv.Ptr, key uint64) {
	off := pa.logOff(ctx.ThreadID)
	cur := a.clock.Current()
	if pa.pool.Load(off+logState, ctx.Mem) == 1 &&
		pa.pool.Load(off+logEpoch, ctx.Mem) != cur {
		oldBlock := riv.FromWord(pa.pool.Load(off+logBlock, ctx.Mem))
		oldPred := riv.FromWord(pa.pool.Load(off+logPred, ctx.Mem))
		oldKey := pa.pool.Load(off+logKey, ctx.Mem)
		a.recoverLoggedAlloc(ctx, oldBlock, oldPred, oldKey)
	}
	pa.pool.Store(off+logEpoch, cur, ctx.Mem)
	pa.pool.Store(off+logBlock, block.Word(), ctx.Mem)
	pa.pool.Store(off+logPred, pred.Word(), ctx.Mem)
	pa.pool.Store(off+logKey, key, ctx.Mem)
	pa.pool.Store(off+logState, 1, ctx.Mem)
	// The whole entry fits one cache line: a single flush makes the log
	// recoverable (§4.1.4, "a single additional cache line flush").
	pa.pool.Persist(off, pmem.LineWords, ctx.Mem)
}

// recoverLoggedAlloc decides the fate of a block named by a stale log
// entry. The block is reclaimed only when it is (a) still a live object,
// (b) stamped with a stale epoch, (c) holding the logged key, and (d) not
// reachable in the client structure — the paper's guard against freeing a
// block that was successfully inserted, or deallocated and reallocated by
// another thread (§4.3.3).
func (a *Allocator) recoverLoggedAlloc(ctx *exec.Ctx, block, pred riv.Ptr, key uint64) {
	if block.IsNull() {
		return
	}
	bPool, bOff := a.resolve(block)
	kind := bPool.Load(bOff+BlockKind, ctx.Mem)
	if kind == KindFree {
		// Already back on a free list (or mid-free: Free is idempotent).
		a.Free(ctx, block)
		return
	}
	if bPool.Load(bOff+BlockEpoch, ctx.Mem) == a.clock.Current() {
		// Claimed or repaired this epoch by someone else; not ours to touch.
		return
	}
	if a.reachCheck != nil && a.reachCheck(ctx, pred, key, block) {
		return // insertion had committed; node is live
	}
	a.Free(ctx, block)
}

// Free returns a block to the free list of the freeing thread's arena
// (Function 5: DeleteLinkedObject). It is idempotent so that a recovery
// of a failed recovery is safe.
func (a *Allocator) Free(ctx *exec.Ctx, obj riv.Ptr) {
	pa, err := a.PoolFor(ctx.Node)
	if err != nil {
		panic(err)
	}
	arena := ctx.ThreadID % pa.cfg.NumArenas
	oPool, oOff := a.resolve(obj)
	if k := oPool.Load(oOff+BlockKind, ctx.Mem); k == KindNode || k == KindRetired || k == KindLegacyVersion {
		a.convertToBlock(ctx, oPool, oOff)
	} else if !riv.FromWord(oPool.Load(oOff+BlockNext, ctx.Mem)).IsNull() || a.endsFreeList(ctx, obj) {
		// Already a free block, and visibly linked: the earlier free
		// completed (Function 5 lines 49–51).
		return
	}
	a.linkChainAtTail(ctx, pa, arena, obj, obj)
}

// endsFreeList reports whether obj ends some arena's free list, in any
// pool, as its tail or the block after a tail a crash left lagging: the
// earlier free may have run on another thread, so into another arena.
func (a *Allocator) endsFreeList(ctx *exec.Ctx, obj riv.Ptr) bool {
	for _, pa := range a.Pools() {
		for ar := 0; ar < pa.cfg.NumArenas; ar++ {
			tail := riv.FromWord(pa.pool.Load(pa.arenaTailOff(ar), ctx.Mem))
			tPool, tOff := a.resolve(tail)
			if tail == obj || riv.FromWord(tPool.Load(tOff+BlockNext, ctx.Mem)) == obj {
				return true
			}
		}
	}
	return false
}

// convertToBlock de-initializes a live object: the payload is zeroed and
// the block re-stamped as free in the current epoch, then persisted.
func (a *Allocator) convertToBlock(ctx *exec.Ctx, pool *pmem.Pool, off uint64) {
	bw := a.BlockWords()
	for w := uint64(0); w < bw; w++ {
		pool.Store(off+w, 0, ctx.Mem)
	}
	pool.Store(off+BlockKind, KindFree, ctx.Mem)
	pool.Store(off+BlockEpoch, a.clock.Current(), ctx.Mem)
	pool.Persist(off, bw, ctx.Mem)
}

// linkChainAtTail appends the chain [first..last] (last.next must be
// null) to the arena's free list. This is Function 6 (LinkInTail)
// generalized to a chain so that whole chunks append in one shot; lagging
// tails are helped forward Michael-Scott style, which subsumes the
// paper's epoch-gated helping and additionally avoids unbounded spinning
// on a preempted linker within the same epoch.
func (a *Allocator) linkChainAtTail(ctx *exec.Ctx, pa *PoolAllocator, arena int, first, last riv.Ptr) {
	tailOff := pa.arenaTailOff(arena)
	for {
		curTailW := pa.pool.Load(tailOff, ctx.Mem)
		curTail := riv.FromWord(curTailW)
		if first == last && curTail == first {
			// The block is already the list's tail (an idempotent re-free
			// caught up with a lagging tail pointer): never self-append.
			return
		}
		tPool, tOff := a.resolve(curTail)
		if tPool.CAS(tOff+BlockNext, riv.Null.Word(), first.Word(), ctx.Mem) {
			tPool.Persist(tOff+BlockNext, 1, ctx.Mem)
			if pa.pool.CAS(tailOff, curTailW, last.Word(), ctx.Mem) {
				pa.pool.Persist(tailOff, 1, ctx.Mem)
			}
			return
		}
		// Tail is lagging: help it forward.
		nextW := tPool.Load(tOff+BlockNext, ctx.Mem)
		if !riv.FromWord(nextW).IsNull() {
			if pa.pool.CAS(tailOff, curTailW, nextW, ctx.Mem) {
				pa.pool.Persist(tailOff, 1, ctx.Mem)
			}
		}
	}
}

// FreeListLen walks one arena's free list and returns its length. Used by
// tests and the orphan-chunk sweep; not safe against concurrent pops
// (the walk may see a transient chain), so call it quiesced.
func (a *Allocator) FreeListLen(pa *PoolAllocator, arena int) int {
	n := 0
	p := riv.FromWord(pa.pool.Load(pa.arenaHeadOff(arena), nil))
	for !p.IsNull() {
		n++
		pool, off := a.resolve(p)
		p = riv.FromWord(pool.Load(off+BlockNext, nil))
	}
	return n
}

// ForEachFree visits every block currently linked into any arena free
// list, across all pools. Like FreeListLen it may observe a transient
// chain under concurrency, so call it quiesced. Used by the structural
// invariant checker to assert linked/free exclusivity.
func (a *Allocator) ForEachFree(fn func(riv.Ptr)) {
	for _, pa := range a.pools {
		for ar := 0; ar < pa.cfg.NumArenas; ar++ {
			p := riv.FromWord(pa.pool.Load(pa.arenaHeadOff(ar), nil))
			for !p.IsNull() {
				fn(p)
				pool, off := a.resolve(p)
				p = riv.FromWord(pool.Load(off+BlockNext, nil))
			}
		}
	}
}

// scanChunks visits every provisioned chunk of every pool in ascending
// (pool ID, chunk) order, so what the scans return is in a deterministic
// order.
func (a *Allocator) scanChunks(visit func(pa *PoolAllocator, chunk uint64)) {
	for _, pa := range a.Pools() {
		for c, n := uint64(0), pa.pool.Load(hdrChunkCount, nil); c < n; c++ {
			visit(pa, c)
		}
	}
}

// collectChunks is the shared body of the pointer-collecting scans: a
// walk over every provisioned chunk, visit appending what it finds in
// one chunk (slab-owned or not, as told).
func (a *Allocator) collectChunks(visit func(out []riv.Ptr, pa *PoolAllocator, c uint64, slab bool) []riv.Ptr) []riv.Ptr {
	var out []riv.Ptr
	a.scanChunks(func(pa *PoolAllocator, c uint64) {
		_, slab := pa.slabCursor(c)
		out = visit(out, pa, c, slab)
	})
	return out
}

// RetiredBlocks scans every provisioned chunk for blocks stamped
// KindRetired or KindLegacyVersion and returns their pointers. This is
// the post-restart limbo rediscovery: limbo lists are volatile, so a
// crash between unlink and free leaves a retired block owned by nobody.
// The retire intent log guarantees any such block is fully unlinked (a
// crash mid-unlink is finished at Open), and a legacy version block was
// never linked, so everything returned here is unreachable and may be
// freed without a grace period by the first retire after Open. The scan
// only reads kind words, so it is safe to run concurrently with
// operations — workers only ever create KindNode blocks.
func (a *Allocator) RetiredBlocks() []riv.Ptr {
	return a.collectChunks(func(out []riv.Ptr, pa *PoolAllocator, c uint64, slab bool) []riv.Ptr {
		if slab {
			return out
		}
		base := pa.chunkSpace + c*pa.cfg.ChunkWords
		nBlocks := pa.cfg.ChunkWords / pa.cfg.BlockWords
		for b := uint64(0); b < nBlocks; b++ {
			if k := pa.pool.Load(base+b*pa.cfg.BlockWords+BlockKind, nil); k == KindRetired || k == KindLegacyVersion {
				out = append(out, riv.Make(pa.pool.ID(), uint16(c), uint32(b*pa.cfg.BlockWords)))
			}
		}
		return out
	})
}

// SlabChunks returns a pointer to the first word of every slab-owned
// chunk, in (pool ID, chunk) order. This is how the arena finds its
// chunks after a restart: the header line is the only record of
// ownership, so there is no list whose links a crash could tear.
func (a *Allocator) SlabChunks() []riv.Ptr {
	return a.collectChunks(func(out []riv.Ptr, pa *PoolAllocator, c uint64, slab bool) []riv.Ptr {
		if slab {
			out = append(out, riv.Make(pa.pool.ID(), uint16(c), 0))
		}
		return out
	})
}

// BlockCensus counts every provisioned block by kind. Node+Retired is
// the store's allocated footprint; a churn workload with reclamation
// should hold it near the live set while one without grows it without
// bound. Legacy version blocks count as Retired: the same startup scan
// frees both. A slab-owned chunk is counted in the same unit: the blocks
// below its bump cursor (header included) are Slab, the uncarved tail is
// Free, so Total - Free stays "every word not available for reuse".
// Kind words are read racily, so under concurrency the census is
// approximate (off by the handful of blocks in transition) — exactly
// good enough for capacity accounting.
type BlockCensus struct {
	Free, Node, Retired, Slab, Total int
}

// Census scans all provisioned chunks and tallies block kinds.
func (a *Allocator) Census() BlockCensus {
	var c BlockCensus
	a.scanChunks(func(pa *PoolAllocator, ch uint64) {
		base := pa.chunkSpace + ch*pa.cfg.ChunkWords
		nBlocks := pa.cfg.ChunkWords / pa.cfg.BlockWords
		if carved, slab := pa.slabCursor(ch); slab {
			c.Slab += int(carved)
			c.Free += int(nBlocks - carved)
			c.Total += int(nBlocks)
			return
		}
		for b := uint64(0); b < nBlocks; b++ {
			switch pa.pool.Load(base+b*pa.cfg.BlockWords+BlockKind, nil) {
			case KindFree:
				c.Free++
			case KindNode:
				c.Node++
			case KindRetired, KindLegacyVersion:
				c.Retired++
			}
			c.Total++
		}
	})
	return c
}

// ReclaimOrphanChunks scans, while the store is quiesced after a restart,
// for chunks whose blocks never made it onto any free list nor into the
// client structure (a crash hit between claimChunk and linkChainAtTail).
// Blocks still stamped free with a stale epoch and unreachable from any
// arena list are re-chained and appended. Returns the number of blocks
// reclaimed.
func (a *Allocator) ReclaimOrphanChunks(ctx *exec.Ctx) int {
	reclaimed := 0
	cur := a.clock.Current()
	for _, pa := range a.pools {
		// Collect every block reachable from any arena list.
		inList := make(map[riv.Ptr]bool)
		for ar := 0; ar < pa.cfg.NumArenas; ar++ {
			p := riv.FromWord(pa.pool.Load(pa.arenaHeadOff(ar), nil))
			for !p.IsNull() {
				inList[p] = true
				pool, off := a.resolve(p)
				p = riv.FromWord(pool.Load(off+BlockNext, nil))
			}
		}
		nChunks := pa.pool.Load(hdrChunkCount, nil)
		for c := uint64(0); c < nChunks; c++ {
			if _, slab := pa.slabCursor(c); slab {
				continue
			}
			base := pa.chunkSpace + c*pa.cfg.ChunkWords
			nBlocks := pa.cfg.ChunkWords / pa.cfg.BlockWords
			for b := uint64(0); b < nBlocks; b++ {
				off := base + b*pa.cfg.BlockWords
				ptr := riv.Make(pa.pool.ID(), uint16(c), uint32(b*pa.cfg.BlockWords))
				if inList[ptr] {
					continue
				}
				if pa.pool.Load(off+BlockKind, nil) != KindFree {
					continue // live object, owned by the client
				}
				if pa.pool.Load(off+BlockEpoch, nil) == cur {
					continue // being handled this epoch
				}
				// Orphan: re-stamp and append.
				pa.pool.Store(off+BlockNext, riv.Null.Word(), nil)
				pa.pool.Store(off+BlockEpoch, cur, nil)
				pa.pool.Persist(off, pmem.LineWords, nil)
				a.linkChainAtTail(ctx, pa, ctx.ThreadID%pa.cfg.NumArenas, ptr, ptr)
				reclaimed++
			}
		}
	}
	return reclaimed
}
