// Package slab implements the variable-size value arena layered on top
// of the allocator's coarse chunk tier: a slab-class allocator inside
// the pmem pools.
//
// # Layout
//
// The arena claims whole allocator chunks (alloc.ClaimSlabChunk) and
// bump-carves each into pages; a page is an extent of 1..k contiguous
// blocks holding chunks of one class. Chunk classes are 4, 8, 16 and 32
// words, then four steps per doubling (40, 48, 56, 64, 80, ...) up to
// 640 words, so a value of up to MaxSingle bytes — anything of 4 KiB or
// less under every geometry whose chunks can hold the largest page —
// occupies exactly one chunk with at most a quarter of it unused. Longer
// values are stored as a chain of largest-class segments.
//
// A slab-owned allocator chunk:
//
//	word 0      kind (alloc.KindSlab)          ┐
//	word 1      epoch at claim                 │ header line, formatted
//	word 2      alloc.SlabChunkMagic           │ and persisted by
//	word 3      bump cursor, in blocks         │ alloc.ClaimSlabChunk
//	word 4      directory length (root only)   ┘
//	word 8..    directory (root only): one free-list head per class
//	block h..   pages, back to back up to the cursor (h = 1, or past
//	            the directory in the root chunk)
//
// Exactly one chunk, the root, carries the directory; it is the first
// chunk the arena ever claims, told apart by a non-zero word 4. A chunk
// is found by its header alone (alloc.SlabChunks scans for it), so there
// is no chunk list whose links a crash could tear, and an all-zero
// directory — what a freshly claimed chunk holds — is the valid empty
// one.
//
// A page:
//
//	word 0      pageMagic | span in blocks | class
//	word 1..3   zero (keeps every chunk 4-word aligned, so the smallest
//	            class never straddles a cache line)
//	word 4..    chunks, each class-size words; the tail is unused
//
// A chunk's first word is its header. While free it holds the raw
// riv.Ptr word of the next free chunk (bit 63 is clear — pool IDs are
// far below 2^15). While in use it holds hdrUsed | byte length, plus
// hdrChained on chain segments; a chain segment's second word is the
// riv.Ptr of the next segment and its payload starts at word 2, while a
// single-segment chunk's payload starts at word 1.
//
// # References
//
// A published value is named by a Ref packed into one node value word:
//
//	bit 63      tag
//	bits 48-62  value byte length (at most maxRefLen), or lenChained for
//	            chained values (true length then lives in the head
//	            segment's header)
//	bits 40-47  pool ID
//	bits 24-39  chunk index, biased +1 exactly like riv.Ptr
//	bits 0-23   word offset within the riv chunk
//
// The length names the class, so freeing a chunk never reads its page.
// The packing is validated against the attached pools' geometry at
// Attach time. IsRef is the one predicate that tells a ref from any
// other value word: the tag bit AND a length code the arena can produce
// (5 114 of 32 768). An 8-byte value whose word fails it needs no chunk:
// the engine stores it as the node word itself.
//
// # Crash consistency
//
// The publish protocol is: pop a chunk, write header + payload, persist
// them together with the free-list head's line (one fence), and only
// then CAS the node's value word. A crash at any point leaves the node
// word holding the complete old or complete new value — never a torn
// one. Chunks whose publishing CAS never landed are in-use but
// unreferenced; Sweep relinks them at the next startup. Free lists are
// advisory: Sweep rebuilds every one from the pages, so neither push nor
// the group-commit path persists a head at all.
//
// Growing a class formats the new page (header and free chain) and
// persists it before the chunk's cursor moves past it, so every page
// below a cursor is whole; a page that a crash left beyond the cursor is
// simply carved again.
//
// # Retirement
//
// Overwriting or removing a value retires its chunks through a volatile
// epoch limbo (the same grace-period domain online node reclamation
// uses), so in-flight readers and open MVCC snapshots keep a stable view
// of the old bytes. Every store shard hands its arena the list's domain,
// so retired chunks free by grace period whether or not the node
// reclaimer runs. A stand-alone arena without a domain holds them until
// DrainQuiesced.
package slab

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/par"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

const (
	pageMagic  = uint64(0x5347) << 48
	pageHdrLen = 4

	// chunkDirLenOff is the arena's tag word in a slab chunk header: the
	// number of directory words behind the header line, non-zero only in
	// the root chunk.
	chunkDirLenOff = alloc.SlabChunkTagOff
	// dirOff is where the root chunk's directory starts.
	dirOff = pmem.LineWords

	// hdrUsed marks an in-use chunk header; hdrChained additionally marks
	// a chain segment. The low 32 bits carry the byte length (remaining
	// length, on chain segments).
	hdrUsed    = uint64(1) << 63
	hdrChained = uint64(1) << 62
	hdrLenMask = uint64(1)<<32 - 1

	// minClassWords is the smallest chunk class (3 payload words).
	minClassWords = 4
	// maxClassWords is the largest class: 639 payload words, so every
	// value of up to 4 KiB (513 words with its header) is one chunk, and
	// single-segment byte lengths stay far inside the Ref's 15-bit field.
	maxClassWords = 640
	// spanSearch is how many page spans beyond the smallest possible one
	// are tried for a class before settling for the least wasteful.
	spanSearch = 8

	// lenChained in the Ref length field marks a chained value.
	lenChained = 0x7FFF
	// maxRefLen is the largest byte length a single-chunk Ref carries: the
	// largest class's payload. No code between it and lenChained is written.
	maxRefLen = (maxClassWords - 1) * 8

	refLenShift   = 48
	refPoolShift  = 40
	refChunkShift = 24
	refOffMask    = uint64(1)<<24 - 1

	// limboBatchSize is how many retired refs accumulate before a batch
	// closes and the era advances.
	limboBatchSize = 64
)

// Errors.
var (
	ErrBadGeometry  = errors.New("slab: pool geometry does not fit the ref packing")
	ErrValueTooLong = errors.New("slab: value exceeds the arena's maximum length")
)

// MaxValueLen is the largest value the chain encoding supports (the
// header length field is 32 bits; engines bound values far below this).
const MaxValueLen = int(hdrLenMask)

// Ref is a packed reference to a stored value: length + chunk address in
// one CAS-able word. The zero Ref is invalid (bit 63 is always set).
type Ref uint64

// IsRef reports whether a node value word is a slab reference: bit 63
// set and a length field the arena can have written (a single-chunk
// length or lenChained), the all-ones tombstone excepted. Every ref any
// revision published satisfies it; any other word is an inline value.
func IsRef(w uint64) bool {
	l := w >> refLenShift & lenChained
	return w>>63 == 1 && (l <= maxRefLen || l == lenChained) && w != ^uint64(0)
}

// Word returns the node-value-word encoding.
func (r Ref) Word() uint64 { return uint64(r) }

// FromWord reinterprets a node value word.
func FromWord(w uint64) Ref { return Ref(w) }

// Chained reports whether the value is stored as a chain of segments.
func (r Ref) Chained() bool { return r.lenField() == lenChained }

// lenField is the value's byte length, or lenChained.
func (r Ref) lenField() int { return int(uint64(r) >> refLenShift & lenChained) }

// ptr unpacks the chunk address.
func (r Ref) ptr() riv.Ptr {
	pool := uint16(uint64(r) >> refPoolShift & 0xff)
	chunkBiased := uint64(r) >> refChunkShift & 0xffff
	off := uint32(uint64(r) & refOffMask)
	return riv.FromWord(uint64(pool)<<48 | chunkBiased<<32 | uint64(off))
}

func makeRef(length int, p riv.Ptr) Ref {
	w := uint64(1)<<63 |
		uint64(length)<<refLenShift |
		uint64(p.Pool())<<refPoolShift |
		(p.Word()>>32&0xffff)<<refChunkShift |
		uint64(p.Offset())
	return Ref(w)
}

// limboBatch is one closed group of retired refs, freeable once every
// worker and snapshot pin has moved past era.
type limboBatch struct {
	era  uint64
	refs []Ref
}

// Stats is a snapshot of the arena's volatile counters.
type Stats struct {
	ChunksAlloced uint64 // chunks handed out
	ChunksFreed   uint64 // chunks returned to free lists
	ChunksRetired uint64 // chunks placed in limbo
	LimboChunks   uint64 // retired, not yet freed
	Pages         uint64 // pages grown by this handle
	Extents       uint64 // allocator chunks the arena owns
	SweepRelinked uint64 // chunks reclaimed by the last Sweep
	SweepScanned  uint64 // pages scanned by the last Sweep
}

// ClassStat describes one chunk class and how many pages it owns.
type ClassStat struct {
	ChunkWords    uint64 // words per chunk, header included
	SpanBlocks    uint64 // contiguous blocks per page
	ChunksPerPage uint64
	// Pages counts the class's pages as of the last Sweep plus those
	// grown since (a handle that never swept counts only its own).
	Pages uint64
}

// class is the geometry of one chunk class.
type class struct {
	words   uint64 // chunk size
	span    uint64 // blocks per page
	perPage uint64 // chunks per page
}

// payloadBytes is the longest value a single chunk of the class holds.
func (c class) payloadBytes() int { return int((c.words - 1) * 8) }

// extent is the volatile mirror of one slab-owned allocator chunk.
type extent struct {
	ptr    riv.Ptr // the chunk's first word
	pool   *pmem.Pool
	base   uint64 // absolute offset of the first word
	first  uint64 // first page block (past the header and directory)
	cursor uint64 // blocks carved; mirrors the header word
}

// Arena is a volatile handle onto the persistent slab structures of one
// allocator (one store shard). Safe for concurrent use.
type Arena struct {
	a     *alloc.Allocator
	space *riv.Space

	dirPool *pmem.Pool
	dirBase uint64 // absolute offset of the first free-list head

	blockWords  uint64
	chunkBlocks uint64
	classes     []class
	mu          []sync.Mutex // per class: free list and growth

	// extents lists every chunk the arena owns, in discovery then claim
	// order. Guarded by extMu, which nests inside a class mutex.
	extMu   sync.Mutex
	extents []*extent

	// dom is the grace-period domain limbo batches are tagged with; nil
	// only for a stand-alone arena, which then frees nothing before
	// DrainQuiesced.
	dom *epoch.Domain

	limboMu sync.Mutex
	open    []Ref
	batches []limboBatch

	alloced    atomic.Uint64
	freed      atomic.Uint64
	retired    atomic.Uint64
	inLimbo    atomic.Uint64
	pages      atomic.Uint64
	classPages []atomic.Uint64

	sweepRelinked atomic.Uint64
	sweepScanned  atomic.Uint64

	// sweepPar bounds the goroutines Sweep fans its page scans out
	// across. <= 1 keeps the sweep serial. Volatile: recovery sets it
	// from the store's per-shard parallelism budget.
	sweepPar atomic.Int32
}

// classSizes lists the chunk sizes in words: powers of two up to 32,
// then four steps per doubling.
func classSizes() []uint64 {
	var out []uint64
	for w := uint64(minClassWords); w < 32; w *= 2 {
		out = append(out, w)
	}
	for w := uint64(32); ; w *= 2 {
		for q := uint64(4); q < 8; q++ {
			if w*q/4 > maxClassWords {
				return out
			}
			out = append(out, w*q/4)
		}
	}
}

// pageSpan picks how many blocks a page of chunkWords-sized chunks
// spans: the smallest span that spends at most an eighth of itself on
// the page header and the unusable tail, or failing that (within
// spanSearch spans of the smallest that holds one chunk) the one that
// spends the least per chunk.
func pageSpan(chunkWords, blockWords uint64) (span, perPage uint64) {
	kmin := (chunkWords + pageHdrLen + blockWords - 1) / blockWords
	var bestWaste uint64
	for k := kmin; k < kmin+spanSearch; k++ {
		n := (k*blockWords - pageHdrLen) / chunkWords
		waste := k*blockWords - n*chunkWords
		if waste*8 <= k*blockWords {
			return k, n
		}
		// Waste per chunk, compared across spans without dividing.
		if span == 0 || waste*perPage < bestWaste*n {
			span, perPage, bestWaste = k, n, waste
		}
	}
	return span, perPage
}

// dirBlocks is the number of leading blocks of a slab chunk taken by the
// header line and a directory of n heads (none outside the root chunk).
func dirBlocks(n, blockWords uint64) uint64 {
	return (dirOff + n + blockWords - 1) / blockWords
}

// classesFor derives the class table of a geometry: every size whose
// page fits a chunk beside the root chunk's header and directory.
func classesFor(blockWords, chunkBlocks uint64) []class {
	sizes := classSizes()
	room := chunkBlocks - min(chunkBlocks, dirBlocks(uint64(len(sizes)), blockWords))
	var out []class
	for _, w := range sizes {
		span, perPage := pageSpan(w, blockWords)
		if span > room {
			break
		}
		out = append(out, class{words: w, span: span, perPage: perPage})
	}
	return out
}

// Attach opens (or lazily creates) the slab arena of an allocator. ctx
// is used for the one-time root chunk claim; pass any worker ctx.
func Attach(a *alloc.Allocator, ctx *exec.Ctx) (*Arena, error) {
	var cfg alloc.Config
	for _, pa := range a.Pools() {
		cfg = pa.Config()
		p := pa.Pool()
		if p.ID() >= 0xff || cfg.MaxChunks > 0xfffe || cfg.ChunkWords > refOffMask {
			return nil, fmt.Errorf("%w: pool %d (chunkWords=%d maxChunks=%d)", ErrBadGeometry, p.ID(), cfg.ChunkWords, cfg.MaxChunks)
		}
	}
	bw := a.BlockWords()
	classes := classesFor(bw, cfg.ChunkWords/bw)
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: a chunk of %d blocks of %d words cannot hold a slab page", ErrBadGeometry, cfg.ChunkWords/bw, bw)
	}
	ar := &Arena{
		a: a, space: a.Space(),
		blockWords:  bw,
		chunkBlocks: cfg.ChunkWords / bw,
		classes:     classes,
		mu:          make([]sync.Mutex, len(classes)),
		classPages:  make([]atomic.Uint64, len(classes)),
	}
	if ar.MaxSingle() > maxRefLen {
		return nil, fmt.Errorf("%w: largest class holds %d bytes, a ref's length field %d", ErrBadGeometry, ar.MaxSingle(), maxRefLen)
	}
	n := uint64(len(classes))
	var root *extent
	for _, p := range a.SlabChunks() {
		if ext, dirLen := ar.addExtent(p); dirLen != 0 {
			if dirLen != n {
				return nil, fmt.Errorf("slab: directory has %d classes, this geometry has %d", dirLen, n)
			}
			root = ext
		}
	}
	if root == nil {
		// The directory needs no formatting: a claimed chunk reads as zero
		// past its header, and zero heads are empty lists.
		p, err := a.ClaimSlabChunk(ctx, dirBlocks(n, bw), n)
		if err != nil {
			return nil, err
		}
		root, _ = ar.addExtent(p)
	}
	ar.dirPool, ar.dirBase = root.pool, root.base+dirOff
	return ar, nil
}

// addExtent registers a slab chunk from its header: the cursor, and the
// directory length that is non-zero only in the root chunk.
func (ar *Arena) addExtent(p riv.Ptr) (ext *extent, dirLen uint64) {
	pool, base := ar.space.Resolve(p)
	dirLen = pool.Load(base+chunkDirLenOff, nil)
	ext = &extent{ptr: p, pool: pool, base: base,
		first:  dirBlocks(dirLen, ar.blockWords),
		cursor: pool.Load(base+alloc.SlabChunkCursorOff, nil)}
	ar.extents = append(ar.extents, ext)
	return ext, dirLen
}

// SetDomain installs the grace-period domain used to tag limbo batches.
// Call it before the arena is shared.
func (ar *Arena) SetDomain(dom *epoch.Domain) { ar.dom = dom }

// SetSweepParallelism bounds the goroutines Sweep's page census, free-
// list walk, and free-list rebuild fan out across. Values <= 1 keep the
// sweep serial.
func (ar *Arena) SetSweepParallelism(p int) {
	if p < 1 {
		p = 1
	}
	ar.sweepPar.Store(int32(p))
}

func (ar *Arena) sweepParallelism() int {
	if p := ar.sweepPar.Load(); p > 1 {
		return int(p)
	}
	return 1
}

// MaxSingle returns the largest byte length stored without chaining.
func (ar *Arena) MaxSingle() int { return ar.classes[len(ar.classes)-1].payloadBytes() }

// segCap is the payload capacity of one chain segment: a largest-class
// chunk less its header and next words.
func (ar *Arena) segCap() int { return ar.MaxSingle() - 8 }

func (ar *Arena) freeHeadOff(class int) uint64 { return ar.dirBase + uint64(class) }

// classFor returns the smallest class whose single-segment payload holds
// n bytes, or -1 when n needs the chain path.
func (ar *Arena) classFor(n int) int {
	for i, c := range ar.classes {
		if c.payloadBytes() >= n {
			return i
		}
	}
	return -1
}

// pop hands out one free chunk of a class, growing a fresh page when the
// class free list is empty. The new head is stored but not persisted:
// the caller flushes the head's line together with the chunk it fills
// (the one-op path, so a torn publish shows up as exactly one relinked
// chunk) or not at all (group commit). Either is safe because free-list
// durability is advisory — the startup sweep rebuilds every class list
// from the pages, so a stale head after a crash can never double-
// allocate.
func (ar *Arena) pop(ctx *exec.Ctx, class int) (chunk riv.Ptr, pool *pmem.Pool, off uint64, err error) {
	ar.mu[class].Lock()
	defer ar.mu[class].Unlock()
	headOff := ar.freeHeadOff(class)
	head := riv.FromWord(ar.dirPool.Load(headOff, ctx.Mem))
	if head.IsNull() {
		if head, err = ar.grow(ctx, class); err != nil {
			return riv.Null, nil, 0, err
		}
	}
	pool, off = ar.space.Resolve(head)
	next := pool.Load(off, ctx.Mem) // free chunk header = next free ptr
	ar.dirPool.Store(headOff, next, ctx.Mem)
	ar.alloced.Add(1)
	return head, pool, off, nil
}

// push returns one chunk to its class free list with plain stores — no
// persists, no fences. Crash-durability of the free lists comes from
// the startup sweep's rebuild (a retired chunk is unreferenced, so the
// rebuild relinks it no matter what the old list said); skipping the
// persists makes freeing fence-free, which matters because the epoch
// reclaimer returns chunks in large expired batches.
func (ar *Arena) push(class int, chunk riv.Ptr, acc *pmem.Acc) {
	ar.mu[class].Lock()
	defer ar.mu[class].Unlock()
	headOff := ar.freeHeadOff(class)
	headW := ar.dirPool.Load(headOff, acc)
	pool, off := ar.space.Resolve(chunk)
	pool.Store(off, headW, acc)
	ar.dirPool.Store(headOff, chunk.Word(), acc)
	ar.freed.Add(1)
}

// grow carves one page for the class out of an extent with room (a
// fresh allocator chunk if none has) and returns its first chunk as the
// head of the class's free chain, which it also stores — unpersisted,
// like every head update — in the directory. Called with the class mutex
// held and the class free list empty.
func (ar *Arena) grow(ctx *exec.Ctx, class int) (riv.Ptr, error) {
	c := ar.classes[class]
	ar.extMu.Lock()
	defer ar.extMu.Unlock()
	ext, err := ar.extentWithRoom(ctx, c.span)
	if err != nil {
		return riv.Null, err
	}
	pageOff := uint32(ext.cursor * ar.blockWords)
	slot := func(i uint64) riv.Ptr {
		return riv.Make(ext.ptr.Pool(), ext.ptr.Chunk(), pageOff+uint32(pageHdrLen+i*c.words))
	}
	// Format the page — header, then the free chain through its chunks,
	// ending at null — and persist it before the cursor admits it.
	abs := ext.base + uint64(pageOff)
	ext.pool.Store(abs, pageMagic|c.span<<16|uint64(class), ctx.Mem)
	for i := uint64(0); i < c.perPage; i++ {
		next := uint64(0)
		if i+1 < c.perPage {
			next = slot(i + 1).Word()
		}
		ext.pool.Store(abs+pageHdrLen+i*c.words, next, ctx.Mem)
	}
	ext.pool.Persist(abs, pageHdrLen+c.perPage*c.words, ctx.Mem)
	ext.cursor += c.span
	ext.pool.Store(ext.base+alloc.SlabChunkCursorOff, ext.cursor, ctx.Mem)
	ext.pool.Persist(ext.base+alloc.SlabChunkCursorOff, 1, ctx.Mem)
	ar.dirPool.Store(ar.freeHeadOff(class), slot(0).Word(), ctx.Mem)
	ar.pages.Add(1)
	ar.classPages[class].Add(1)
	return slot(0), nil
}

// extentWithRoom returns an extent in the pool serving ctx with span
// uncarved blocks left, claiming a fresh chunk when none has. Called
// with extMu held.
func (ar *Arena) extentWithRoom(ctx *exec.Ctx, span uint64) (*extent, error) {
	pa, err := ar.a.PoolFor(ctx.Node)
	if err != nil {
		return nil, err
	}
	for _, ext := range ar.extents {
		if ext.pool == pa.Pool() && ar.chunkBlocks-ext.cursor >= span {
			return ext, nil
		}
	}
	p, err := ar.a.ClaimSlabChunk(ctx, dirBlocks(0, ar.blockWords), 0)
	if err != nil {
		return nil, err
	}
	ext, _ := ar.addExtent(p)
	return ext, nil
}

// Put writes val out-of-place and returns its Ref. When flush is nil the
// chunk contents are persisted, together with the free-list head they
// were popped from, under one fence before Put returns — the caller may
// publish the ref immediately. With a non-nil flush the chunk's dirty
// lines are deferred into it instead; the caller MUST Flush before any
// store that publishes the ref (the batch write path's single grouped
// fence).
func (ar *Arena) Put(ctx *exec.Ctx, val []byte, flush *pmem.Batch) (Ref, error) {
	if len(val) > MaxValueLen {
		return 0, ErrValueTooLong
	}
	class := ar.classFor(len(val))
	if class < 0 {
		return ar.putChained(ctx, val, flush)
	}
	chunk, pool, off, err := ar.pop(ctx, class)
	if err != nil {
		return 0, err
	}
	pool.Store(off, hdrUsed|uint64(len(val)), ctx.Mem)
	pool.StoreBytes(off+1, val, ctx.Mem)
	ar.stage(ctx, pool, off, uint64(1+(len(val)+7)/8), flush)
	ar.commit(ctx, class, flush)
	return makeRef(len(val), chunk), nil
}

// stage queues words [off, off+n) of a freshly written chunk for
// flushing: into the caller's group-commit batch, or on the one-op path
// into the worker's own, which commit drains.
func (ar *Arena) stage(ctx *exec.Ctx, pool *pmem.Pool, off, n uint64, flush *pmem.Batch) {
	if flush == nil {
		flush = &ctx.Batch
	}
	flush.Add(pool, off, n, ctx.Mem)
}

// commit ends a one-op Put: the line of the free-list head the chunks
// were popped from joins the staged chunk lines, and everything drains
// under a single fence when the directory and the chunks share a pool.
// On the group-commit path the caller's Flush is the commit.
func (ar *Arena) commit(ctx *exec.Ctx, class int, flush *pmem.Batch) {
	if flush == nil {
		ctx.Batch.Add(ar.dirPool, ar.freeHeadOff(class), 1, ctx.Mem)
		ctx.Batch.Flush(ctx.Mem)
	}
}

// putChained stores val as a chain of largest-class segments, written
// back to front so every next pointer names a segment already written.
func (ar *Arena) putChained(ctx *exec.Ctx, val []byte, flush *pmem.Batch) (Ref, error) {
	class := len(ar.classes) - 1
	segCap := ar.segCap()
	next := riv.Null
	for start := (len(val) - 1) / segCap * segCap; start >= 0; start -= segCap {
		seg, pool, off, err := ar.pop(ctx, class)
		if err != nil {
			// Roll the partial chain straight back to the free list: the
			// chunks were never published anywhere.
			ar.alloced.Add(-ar.freeChain(next, ctx.Mem))
			ar.commit(ctx, class, flush)
			return 0, err
		}
		end := min(start+segCap, len(val))
		pool.Store(off, hdrUsed|hdrChained|uint64(len(val)-start), ctx.Mem)
		pool.Store(off+1, next.Word(), ctx.Mem)
		pool.StoreBytes(off+2, val[start:end], ctx.Mem)
		ar.stage(ctx, pool, off, uint64(2+(end-start+7)/8), flush)
		next = seg
	}
	ar.commit(ctx, class, flush)
	return makeRef(lenChained, next), nil
}

// Len returns the byte length of the value behind ref.
func (ar *Arena) Len(ref Ref, acc *pmem.Acc) int {
	if l := ref.lenField(); l != lenChained {
		return l
	}
	pool, off := ar.space.Resolve(ref.ptr())
	return int(pool.Load(off, acc) & hdrLenMask)
}

// Get appends the value behind ref to dst and returns the result. The
// caller must hold whatever pin protects the ref from reclamation.
func (ar *Arena) Get(ref Ref, dst []byte, acc *pmem.Acc) []byte {
	pool, off := ar.space.Resolve(ref.ptr())
	l := ref.lenField()
	if l != lenChained {
		return pool.LoadBytes(off+1, l, dst, acc)
	}
	segCap := ar.segCap()
	for {
		remaining := int(pool.Load(off, acc) & hdrLenMask)
		next := riv.FromWord(pool.Load(off+1, acc))
		dst = pool.LoadBytes(off+2, min(remaining, segCap), dst, acc)
		if next.IsNull() {
			return dst
		}
		pool, off = ar.space.Resolve(next)
	}
}

// Retire places every chunk of ref's value into the limbo: the bytes
// stay readable until every pin taken before the retire has been
// released. Callers retire a ref exactly once, after the node word that
// named it has durably moved on.
func (ar *Arena) Retire(ref Ref) {
	ar.retired.Add(1)
	ar.inLimbo.Add(1)
	ar.limboMu.Lock()
	ar.open = append(ar.open, ref)
	shouldClose := len(ar.open) >= limboBatchSize
	ar.limboMu.Unlock()
	if shouldClose {
		ar.Tick(nil)
	}
}

// Tick closes the open limbo batch (tagging it with a fresh era) and
// frees every closed batch whose grace period has expired. With no
// domain attached nothing is freed — DrainQuiesced is then the only
// path that returns retired chunks.
func (ar *Arena) Tick(acc *pmem.Acc) {
	dom := ar.dom
	if dom == nil {
		return
	}
	ar.limboMu.Lock()
	if len(ar.open) > 0 {
		era := dom.Era()
		ar.batches = append(ar.batches, limboBatch{era: era, refs: ar.open})
		ar.open = make([]Ref, 0, limboBatchSize)
		dom.Advance()
	}
	min := dom.MinActive()
	var free []limboBatch
	keep := ar.batches[:0]
	for _, b := range ar.batches {
		if b.era < min {
			free = append(free, b)
		} else {
			keep = append(keep, b)
		}
	}
	ar.batches = keep
	ar.limboMu.Unlock()
	for _, b := range free {
		for _, r := range b.refs {
			ar.freeRef(r, acc)
		}
	}
}

// DrainQuiesced frees every retired chunk immediately. Callers must
// guarantee no reader can still hold a ref (store quiesced, or every
// snapshot closed and workers parked).
func (ar *Arena) DrainQuiesced(acc *pmem.Acc) {
	ar.limboMu.Lock()
	all := ar.batches
	ar.batches = nil
	if len(ar.open) > 0 {
		all = append(all, limboBatch{refs: ar.open})
		ar.open = nil
	}
	ar.limboMu.Unlock()
	for _, b := range all {
		for _, r := range b.refs {
			ar.freeRef(r, acc)
		}
	}
}

// freeRef pushes every chunk of a retired value back onto its class
// free list; the class is the one Put chose for the ref's length.
func (ar *Arena) freeRef(ref Ref, acc *pmem.Acc) {
	ar.inLimbo.Add(^uint64(0))
	if ref.Chained() {
		ar.freeChain(ref.ptr(), acc)
		return
	}
	ar.push(ar.classFor(ref.lenField()), ref.ptr(), acc)
}

// freeChain pushes the chain segments from p on and returns how many.
func (ar *Arena) freeChain(p riv.Ptr, acc *pmem.Acc) (n uint64) {
	for ; !p.IsNull(); n++ {
		pool, off := ar.space.Resolve(p)
		next := riv.FromWord(pool.Load(off+1, acc))
		ar.push(len(ar.classes)-1, p, acc)
		p = next
	}
	return n
}

// Stats returns a snapshot of the arena counters.
func (ar *Arena) Stats() Stats {
	ar.extMu.Lock()
	extents := len(ar.extents)
	ar.extMu.Unlock()
	return Stats{
		ChunksAlloced: ar.alloced.Load(),
		ChunksFreed:   ar.freed.Load(),
		ChunksRetired: ar.retired.Load(),
		LimboChunks:   ar.inLimbo.Load(),
		Pages:         ar.pages.Load(),
		Extents:       uint64(extents),
		SweepRelinked: ar.sweepRelinked.Load(),
		SweepScanned:  ar.sweepScanned.Load(),
	}
}

// ClassStats returns the class table with each class's page count.
func (ar *Arena) ClassStats() []ClassStat {
	out := make([]ClassStat, len(ar.classes))
	for i, c := range ar.classes {
		out[i] = ClassStat{ChunkWords: c.words, SpanBlocks: c.span, ChunksPerPage: c.perPage, Pages: ar.classPages[i].Load()}
	}
	return out
}

// page is one carved page as the sweep sees it.
type page struct {
	ptr   riv.Ptr // the page's first word
	pool  *pmem.Pool
	off   uint64 // absolute offset of ptr
	class int
}

// slot returns chunk i of the page and its absolute offset.
func (pg page) slot(i uint64, c class) (riv.Ptr, uint64) {
	rel := pageHdrLen + i*c.words
	return riv.Make(pg.ptr.Pool(), pg.ptr.Chunk(), pg.ptr.Offset()+uint32(rel)), pg.off + rel
}

// extentPages is the sweep's index of one extent: its pages in address
// order and, per block, which page (index into pages, -1 for none)
// covers it.
type extentPages struct {
	pages   []page
	byBlock []int32
}

// walkPages reads the page headers of one extent up to its cursor.
func (ar *Arena) walkPages(ext *extent, acc *pmem.Acc) extentPages {
	ep := extentPages{byBlock: make([]int32, ar.chunkBlocks)}
	for i := range ep.byBlock {
		ep.byBlock[i] = -1
	}
	for b := ext.first; b < ext.cursor; {
		off := ext.base + b*ar.blockWords
		meta := ext.pool.Load(off, acc)
		class, span := int(meta&0xffff), meta>>16&0xffff
		if meta>>48<<48 != pageMagic || class >= len(ar.classes) || span != ar.classes[class].span {
			break // not a page of this geometry: nothing past it is reachable
		}
		for i := b; i < b+span && i < ar.chunkBlocks; i++ {
			ep.byBlock[i] = int32(len(ep.pages))
		}
		ep.pages = append(ep.pages, page{
			ptr:  riv.Make(ext.ptr.Pool(), ext.ptr.Chunk(), uint32(b*ar.blockWords)),
			pool: ext.pool, off: off, class: class,
		})
		b += span
	}
	return ep
}

// hasPages reports whether any extent has carved a page.
func (ar *Arena) hasPages() bool {
	for _, ext := range ar.extents {
		if ext.cursor > ext.first {
			return true
		}
	}
	return false
}

// Sweep is the startup crash-leak scan. live must call its argument
// with every node value word currently published in the structure (the
// engine walks the bottom level); Sweep follows refs (and their chains)
// to build the referenced set, then REBUILDS every class free list from
// the pages: each page chunk that no live ref reaches goes onto a
// freshly-carved chain, and the old list is only consulted (with full
// validation, since a crash can leave a head pointing at a handed-out
// chunk whose header is payload bytes) to tell genuine leaks from
// chunks that were already free — the relinked count reports only the
// former. The rebuild is what makes allocation-time free-list persists
// unnecessary: no head that survived a crash is ever trusted.
//
// The sweep pays for what a crash can have broken: with no page carved
// it returns before calling live at all, and the rebuild persists only
// the pages in which it relinked a leaked chunk (the links it rewrites
// between already-free chunks are as advisory as the heads).
//
// Must run quiesced (no concurrent operations), which is the state at
// Reopen/Load time. Idempotent: a clean store sweeps zero chunks. With
// SetSweepParallelism > 1 the page walk, free-list walk, and rebuild
// partition their work across goroutines with per-goroutine
// accumulators merged (and free chains stitched) at the end.
func (ar *Arena) Sweep(ctx *exec.Ctx, live func(emit func(word uint64))) (relinked int) {
	if !ar.hasPages() {
		// No page was ever carved: no chunk exists for a crash to have
		// leaked, live need not walk the structure (a store of inline
		// values reopens without reading a key), and no head has anything
		// to point into.
		for class := range ar.classes {
			if off := ar.freeHeadOff(class); ar.dirPool.Load(off, ctx.Mem) != 0 {
				ar.dirPool.Store(off, 0, ctx.Mem)
				ar.dirPool.Persist(off, 1, ctx.Mem)
			}
			ar.classPages[class].Store(0)
		}
		ar.sweepRelinked.Store(0)
		ar.sweepScanned.Store(0)
		return 0
	}
	referenced := make(map[riv.Ptr]bool)
	mark := func(ref Ref) {
		p := ref.ptr()
		if !ref.Chained() {
			referenced[p] = true
			return
		}
		for !p.IsNull() {
			referenced[p] = true
			pool, off := ar.space.Resolve(p)
			p = riv.FromWord(pool.Load(off+1, ctx.Mem))
		}
	}
	live(func(w uint64) {
		if IsRef(w) {
			mark(Ref(w))
		}
	})

	// Refs still sitting in this handle's limbo are owned (they will be
	// freed through Tick/DrainQuiesced); at startup the limbo is empty,
	// so this only matters for mid-run sweeps in tests.
	ar.limboMu.Lock()
	for _, b := range append(append([]limboBatch(nil), ar.batches...), limboBatch{refs: ar.open}) {
		for _, r := range b.refs {
			mark(r)
		}
	}
	ar.limboMu.Unlock()

	// Page walk first: the old free lists can only be interpreted against
	// the set of chunk slots each class actually owns. Extents are
	// independent, so the walk fans out over them. Accumulator accounting
	// (pmem.Acc) is owner-goroutine state, so workers in the parallel
	// regime pass nil accs.
	budget := ar.sweepParallelism()
	accFor := func(workers int) *pmem.Acc {
		if workers > 1 {
			return nil
		}
		return ctx.Mem
	}
	chunkKey := func(p riv.Ptr) uint32 { return uint32(p.Pool())<<16 | uint32(p.Chunk()) }
	index := make(map[uint32]*extentPages, len(ar.extents))
	walked := make([]extentPages, len(ar.extents))
	par.Ranges(len(ar.extents), budget, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			walked[i] = ar.walkPages(ar.extents[i], accFor(budget))
		}
	})
	pagesByClass := make([][]page, len(ar.classes))
	for i, ext := range ar.extents {
		index[chunkKey(ext.ptr)] = &walked[i]
		for _, pg := range walked[i].pages {
			pagesByClass[pg.class] = append(pagesByClass[pg.class], pg)
		}
	}
	// isSlot reports whether p addresses a chunk slot of the class.
	isSlot := func(p riv.Ptr, class int) bool {
		ep := index[chunkKey(p)]
		b := uint64(p.Offset()) / ar.blockWords
		if ep == nil || b >= uint64(len(ep.byBlock)) || ep.byBlock[b] < 0 {
			return false
		}
		pg, c := ep.pages[ep.byBlock[b]], ar.classes[class]
		rel := uint64(p.Offset() - pg.ptr.Offset())
		return pg.class == class && rel >= pageHdrLen &&
			(rel-pageHdrLen)%c.words == 0 && (rel-pageHdrLen)/c.words < c.perPage
	}

	// Walk the old free lists defensively to learn which unreferenced
	// chunks were already free (so they don't count as leaks). After a
	// crash a stale head may point at a handed-out chunk whose header is
	// payload, so every step is validated — a real chunk slot of this
	// class, unreferenced, unseen — and the walk stops at the first entry
	// that fails (everything past it is reconstructed below anyway).
	// Every chunk slot belongs to exactly one class, so the per-class
	// walks touch disjoint sets and run one goroutine per class.
	onList := make(map[riv.Ptr]bool)
	classOnList := make([]map[riv.Ptr]bool, len(ar.classes))
	par.Ranges(len(ar.classes), budget, func(_, lo, hi int) {
		acc := accFor(budget)
		for class := lo; class < hi; class++ {
			local := make(map[riv.Ptr]bool)
			p := riv.FromWord(ar.dirPool.Load(ar.freeHeadOff(class), acc))
			for !p.IsNull() && isSlot(p, class) && !referenced[p] && !local[p] {
				local[p] = true
				pool, off := ar.space.Resolve(p)
				p = riv.FromWord(pool.Load(off, acc))
			}
			classOnList[class] = local
		}
	})
	for _, local := range classOnList {
		for p := range local {
			onList[p] = true
		}
	}

	// Rebuild each class list from scratch: carve a fresh chain through
	// every unreferenced chunk and publish it as the new head. Chunks
	// absent from the validated old list are the crash leaks; they are
	// ordered ahead of the long-free chunks so they come off the list
	// first — the next allocation reuses recovered space before touching
	// the long-free tail.
	//
	// This is the sweep's heavy phase, so the page range of each class is
	// partitioned across goroutines. Each worker carves two local chains
	// (already-free chunks and leaks) through its own pages — disjoint
	// words, no locks — and the chains are stitched serially afterwards
	// by pointing each tail at the next chain's head (one extra word
	// persist per seam).
	scanned := 0
	for class, c := range ar.classes {
		pages := pagesByClass[class]
		scanned += len(pages)
		ar.classPages[class].Store(uint64(len(pages)))
		workers := max(1, min(budget, len(pages)))
		type chain struct {
			head, tail riv.Ptr
			count      int
		}
		freeParts := make([]chain, workers)
		leakParts := make([]chain, workers)
		par.Ranges(len(pages), workers, func(w, lo, hi int) {
			acc := accFor(workers)
			add := func(ch *chain, chunk riv.Ptr, pool *pmem.Pool, off uint64) {
				pool.Store(off, ch.head.Word(), acc)
				if ch.head.IsNull() {
					ch.tail = chunk
				}
				ch.head = chunk
				ch.count++
			}
			for _, pg := range pages[lo:hi] {
				leaks := leakParts[w].count
				for i := uint64(0); i < c.perPage; i++ {
					chunk, off := pg.slot(i, c)
					if referenced[chunk] {
						continue
					}
					if onList[chunk] {
						add(&freeParts[w], chunk, pg.pool, off)
					} else {
						add(&leakParts[w], chunk, pg.pool, off)
					}
				}
				// Links between chunks that were already free are as
				// advisory as the heads; only a relinked chunk's header must
				// not come back as in use.
				if leakParts[w].count != leaks {
					pg.pool.Persist(pg.off+pageHdrLen, c.perPage*c.words, acc)
				}
			}
		})
		chains := make([]*chain, 0, 2*workers)
		for w := range leakParts {
			if leakParts[w].count > 0 {
				chains = append(chains, &leakParts[w])
				relinked += leakParts[w].count
			}
		}
		for w := range freeParts {
			if freeParts[w].count > 0 {
				chains = append(chains, &freeParts[w])
			}
		}
		newHead := uint64(0)
		if len(chains) > 0 {
			newHead = chains[0].head.Word()
			for i := 0; i+1 < len(chains); i++ {
				pool, off := ar.space.Resolve(chains[i].tail)
				pool.Store(off, chains[i+1].head.Word(), ctx.Mem)
				pool.Persist(off, 1, ctx.Mem)
			}
		}
		ar.dirPool.Store(ar.freeHeadOff(class), newHead, ctx.Mem)
		ar.dirPool.Persist(ar.freeHeadOff(class), 1, ctx.Mem)
	}
	ar.sweepRelinked.Store(uint64(relinked))
	ar.sweepScanned.Store(uint64(scanned))
	return relinked
}
