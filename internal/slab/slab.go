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
//	word 0      kind (alloc.KindSlab)          ┐ header line, formatted
//	word 1      epoch at claim                 │ and persisted by
//	word 2      alloc.SlabChunkMagic           │ alloc.ClaimSlabChunk
//	word 3      bump cursor, in blocks         ┘
//	block 1..   pages, back to back up to the cursor
//
// A chunk is found by its header alone (alloc.SlabChunks scans for it),
// so there is no chunk list whose links a crash could tear, and no chunk
// is special: the first grow claims the first one. (An image written
// while the free lists lived in the pools has one root chunk whose word
// 4 counts the free-list heads behind its header line; its pages start
// past them.)
//
// A page:
//
//	word 0      pageMagic | span in blocks | class
//	word 1..3   zero (keeps every chunk 4-word aligned, so the smallest
//	            class never straddles a cache line)
//	word 4..    chunks, each class-size words; the tail is unused
//
// A chunk's first word is its header: hdrUsed | byte length while in
// use, plus hdrChained on chain segments; anything with bit 63 clear
// (zero, or an older image's next-free pointer) while free. A chain
// segment's second word is the riv.Ptr of the next segment and its
// payload starts at word 2, while a single-segment chunk's payload
// starts at word 1.
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
// Attach time. Arena.IsRef is the one predicate that tells a ref from
// any other value word: the tag bit, a length code the arena can
// produce (5 114 of 32 768) and an address in an attached pool's chunk
// area, whose geometry Create fixes. About 5·10⁻⁹ of random words pass;
// an 8-byte value whose word fails it is the node word itself.
//
// # Crash consistency
//
// The publish protocol is: pop a chunk, write header + payload, persist
// them (one fence, which carries the data and nothing else), and only
// then CAS the node's value word. A crash at any point leaves the node
// word holding the complete old or complete new value — never a torn
// one. Chunks whose publishing CAS never landed are in-use but
// unreferenced; Sweep relinks them at the next startup. Free lists are
// volatile: each is a Go slice under a class mutex held only for an
// append or a truncate, and Sweep rebuilds every one from the pages, so
// a pop reads no pool word and a push stores one unpersisted zero.
//
// Growing a class writes and persists the new page's header line before
// the chunk's cursor moves past it, so every page below a cursor has its
// header; a page that a crash left beyond the cursor is simply carved
// again.
//
// # Retirement
//
// Overwriting or removing a value retires its chunks through a volatile
// epoch limbo (the same grace-period domain online node reclamation
// uses), so in-flight readers and open MVCC snapshots keep a stable view
// of the old bytes. The limbo is epoch.Limbo, the type retired nodes go
// through too. Every store shard hands its arena the list's domain, so
// retired chunks free by grace period whether or not online node
// reclamation is on. A stand-alone arena without a domain holds them
// until DrainQuiesced.
package slab

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

const (
	pageMagic  = uint64(0x5347) << 48
	pageHdrLen = 4

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
	first  uint64 // first page block (past the header line and any old heads)
	cursor uint64 // blocks carved; mirrors the header word
}

// freeList is one class's free chunks, handed out from the end. The
// mutex is held for an append or a truncate, never across a pool access.
type freeList struct {
	mu     sync.Mutex
	chunks []riv.Ptr
}

// Arena is a volatile handle onto the persistent slab structures of one
// allocator (one store shard). Safe for concurrent use.
type Arena struct {
	a     *alloc.Allocator
	space *riv.Space

	blockWords  uint64
	chunkBlocks uint64
	classes     []class
	free        []freeList // per class

	// pools has bit id set per attached pool; with maxChunks and the
	// chunk size it bounds the area IsRef accepts.
	pools     [4]uint64
	maxChunks uint64

	// extents lists every chunk the arena owns, in discovery then claim
	// order. Guarded by extMu, which also serializes grow; a class
	// mutex nests inside it.
	extMu   sync.Mutex
	extents []*extent

	// dom is the grace-period domain limbo batches are tagged with; nil
	// only for a stand-alone arena, which then frees nothing before
	// DrainQuiesced.
	dom   *epoch.Domain
	limbo epoch.Limbo[Ref]

	alloced    atomic.Uint64
	freed      atomic.Uint64
	retired    atomic.Uint64
	pages      atomic.Uint64
	classPages []atomic.Uint64

	sweepRelinked atomic.Uint64
	sweepScanned  atomic.Uint64
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

// hdrBlocks is the number of leading blocks of a slab chunk taken by its
// header line and the tag's count of words behind it: zero in a chunk
// claimed now, one free-list head per class in an older image's root
// chunk.
func hdrBlocks(tag, blockWords uint64) uint64 {
	return (pmem.LineWords + tag + blockWords - 1) / blockWords
}

// classesFor derives the class table of a geometry: every size whose
// page fits a chunk beside a header line and one word per class. That
// was the root chunk's directory; the room stays reserved so that every
// page header an older image holds decodes to the class it was carved
// for.
func classesFor(blockWords, chunkBlocks uint64) []class {
	sizes := classSizes()
	room := chunkBlocks - min(chunkBlocks, hdrBlocks(uint64(len(sizes)), blockWords))
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

// Attach opens the slab arena of an allocator: it reads the header of
// every slab chunk and claims nothing (the first grow does), so the ctx
// it takes goes unused.
func Attach(a *alloc.Allocator, _ *exec.Ctx) (*Arena, error) {
	var cfg alloc.Config
	var pools [4]uint64
	for _, pa := range a.Pools() {
		cfg = pa.Config()
		p := pa.Pool()
		if p.ID() >= 0xff || cfg.MaxChunks > 0xfffe || cfg.ChunkWords > refOffMask {
			return nil, fmt.Errorf("%w: pool %d (chunkWords=%d maxChunks=%d)", ErrBadGeometry, p.ID(), cfg.ChunkWords, cfg.MaxChunks)
		}
		pools[p.ID()>>6] |= 1 << (p.ID() & 63)
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
		free:        make([]freeList, len(classes)),
		classPages:  make([]atomic.Uint64, len(classes)),
		pools:       pools,
		maxChunks:   cfg.MaxChunks,
	}
	if ar.MaxSingle() > maxRefLen {
		return nil, fmt.Errorf("%w: largest class holds %d bytes, a ref's length field %d", ErrBadGeometry, ar.MaxSingle(), maxRefLen)
	}
	for _, p := range a.SlabChunks() {
		ar.addExtent(p)
	}
	return ar, nil
}

// addExtent registers a slab chunk from its header: the cursor, and the
// tag word that places an older image's root chunk pages past its heads.
func (ar *Arena) addExtent(p riv.Ptr) *extent {
	pool, base := ar.space.Resolve(p)
	ext := &extent{ptr: p, pool: pool, base: base,
		first:  hdrBlocks(pool.Load(base+alloc.SlabChunkTagOff, nil), ar.blockWords),
		cursor: pool.Load(base+alloc.SlabChunkCursorOff, nil)}
	ar.extents = append(ar.extents, ext)
	return ext
}

// IsRef reports whether a node value word is a ref of this arena: bit
// 63, a length code Put writes and an address in an attached pool's
// chunk area — geometry fixed at Create, so no word's verdict changes.
func (ar *Arena) IsRef(w uint64) bool {
	l, pool, chunk := w>>refLenShift&lenChained, w>>refPoolShift&0xff, w>>refChunkShift&0xffff
	return w>>63 == 1 && (l <= maxRefLen || l == lenChained) &&
		pool < 0xff && ar.pools[pool>>6]>>(pool&63)&1 == 1 &&
		chunk >= 1 && chunk <= ar.maxChunks && w&refOffMask < ar.chunkBlocks*ar.blockWords
}

// SetDomain installs the grace-period domain used to tag limbo batches.
// Call it before the arena is shared.
func (ar *Arena) SetDomain(dom *epoch.Domain) { ar.dom = dom }

// MaxSingle returns the largest byte length stored without chaining.
func (ar *Arena) MaxSingle() int { return ar.classes[len(ar.classes)-1].payloadBytes() }

// segCap is the payload capacity of one chain segment: a largest-class
// chunk less its header and next words.
func (ar *Arena) segCap() int { return ar.MaxSingle() - 8 }

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

// take removes the most recently freed chunk from a class's list.
func (ar *Arena) take(class int) (riv.Ptr, bool) {
	fl := &ar.free[class]
	fl.mu.Lock()
	defer fl.mu.Unlock()
	n := len(fl.chunks)
	if n == 0 {
		return riv.Null, false
	}
	p := fl.chunks[n-1]
	fl.chunks = fl.chunks[:n-1]
	return p, true
}

// pop hands out one free chunk of a class, growing a fresh page when the
// class list is empty. It reads no pool word: the caller overwrites the
// chunk's header, whatever it holds.
func (ar *Arena) pop(ctx *exec.Ctx, class int) (chunk riv.Ptr, pool *pmem.Pool, off uint64, err error) {
	chunk, ok := ar.take(class)
	if !ok {
		if chunk, err = ar.grow(ctx, class); err != nil {
			return riv.Null, nil, 0, err
		}
	}
	ar.alloced.Add(1)
	pool, off = ar.space.Resolve(chunk)
	return chunk, pool, off, nil
}

// push returns one chunk to its class list. Its one pool access, made
// before the chunk is listed, is an unpersisted zero into the header: a
// clean reopen reads the chunk as free, and a crash that reverts the
// zero leaves an in-use header no node names, which the sweep relinks.
// Freeing costs no fence, which matters because the epoch limbo
// returns chunks in large expired batches.
func (ar *Arena) push(class int, chunk riv.Ptr, acc *pmem.Acc) {
	pool, off := ar.space.Resolve(chunk)
	pool.Store(off, 0, acc)
	fl := &ar.free[class]
	fl.mu.Lock()
	fl.chunks = append(fl.chunks, chunk)
	fl.mu.Unlock()
	ar.freed.Add(1)
}

// grow carves one page for the class out of an extent with room (a
// fresh allocator chunk if none has), lists every chunk of it but the
// first so that they come off in address order, and returns the first.
// It writes only the page header, persisted before the cursor that
// admits the page: the chunks below a cursor read as free until a Put
// fills them. Grows serialize on extMu, and one that waited there for a
// grow of the same class takes from the page that grow listed.
func (ar *Arena) grow(ctx *exec.Ctx, class int) (riv.Ptr, error) {
	ar.extMu.Lock()
	defer ar.extMu.Unlock()
	if p, ok := ar.take(class); ok {
		return p, nil
	}
	c := ar.classes[class]
	ext, err := ar.extentWithRoom(ctx, c.span)
	if err != nil {
		return riv.Null, err
	}
	pg := ext.page(ext.cursor, ar.blockWords, class)
	pg.pool.Store(pg.off, pageMagic|c.span<<16|uint64(class), ctx.Mem)
	pg.pool.Persist(pg.off, 1, ctx.Mem)
	ext.cursor += c.span
	ext.pool.Store(ext.base+alloc.SlabChunkCursorOff, ext.cursor, ctx.Mem)
	ext.pool.Persist(ext.base+alloc.SlabChunkCursorOff, 1, ctx.Mem)
	fl := &ar.free[class]
	fl.mu.Lock()
	for i := c.perPage - 1; i > 0; i-- {
		p, _ := pg.slot(i, c)
		fl.chunks = append(fl.chunks, p)
	}
	fl.mu.Unlock()
	ar.pages.Add(1)
	ar.classPages[class].Add(1)
	p, _ := pg.slot(0, c)
	return p, nil
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
	p, err := ar.a.ClaimSlabChunk(ctx, hdrBlocks(0, ar.blockWords))
	if err != nil {
		return nil, err
	}
	return ar.addExtent(p), nil
}

// Put writes val out-of-place and returns its Ref. When flush is nil the
// chunk contents are persisted under one fence before Put returns — the
// caller may publish the ref immediately. With a non-nil flush the
// chunk's dirty lines are deferred into it instead; the caller MUST
// Flush before any store that publishes the ref (the batch write path's
// single grouped fence).
func (ar *Arena) Put(ctx *exec.Ctx, val []byte, flush *pmem.Batch) (Ref, error) {
	if len(val) > MaxValueLen {
		return 0, ErrValueTooLong
	}
	if flush != nil {
		return ar.put(ctx, val, flush)
	}
	ref, err := ar.put(ctx, val, &ctx.Batch)
	ctx.Batch.Flush(ctx.Mem)
	return ref, err
}

// put writes val into fresh chunks and adds their lines to flush.
func (ar *Arena) put(ctx *exec.Ctx, val []byte, flush *pmem.Batch) (Ref, error) {
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
	flush.Add(pool, off, uint64(1+(len(val)+7)/8), ctx.Mem)
	return makeRef(len(val), chunk), nil
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
			// chunks were never published anywhere. Each counts once as
			// handed out and once as freed.
			ar.freeChain(next, ctx.Mem)
			return 0, err
		}
		end := min(start+segCap, len(val))
		pool.Store(off, hdrUsed|hdrChained|uint64(len(val)-start), ctx.Mem)
		pool.Store(off+1, next.Word(), ctx.Mem)
		pool.StoreBytes(off+2, val[start:end], ctx.Mem)
		flush.Add(pool, off, uint64(2+(end-start+7)/8), ctx.Mem)
		next = seg
	}
	return makeRef(lenChained, next), nil
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
	if ar.limbo.Add(ref) {
		ar.Tick(nil)
	}
}

// Tick closes the open limbo batch and frees every closed batch whose
// grace period has expired. Without a domain it does nothing.
func (ar *Arena) Tick(acc *pmem.Acc) {
	if ar.dom == nil {
		return
	}
	ar.limbo.Close(ar.dom)
	ar.limbo.Expire(ar.dom, func(r Ref) { ar.freeRef(r, acc) }, nil)
}

// DrainQuiesced frees every retired chunk immediately. Callers must
// guarantee no reader can still hold a ref (store quiesced, or every
// snapshot closed and workers parked).
func (ar *Arena) DrainQuiesced(acc *pmem.Acc) {
	ar.limbo.Drain(func(r Ref) { ar.freeRef(r, acc) })
}

// freeRef pushes every chunk of a retired value back onto its class
// free list; the class is the one Put chose for the ref's length.
func (ar *Arena) freeRef(ref Ref, acc *pmem.Acc) {
	if ref.Chained() {
		ar.freeChain(ref.ptr(), acc)
		return
	}
	ar.push(ar.classFor(ref.lenField()), ref.ptr(), acc)
}

// freeChain pushes the chain segments from p on.
func (ar *Arena) freeChain(p riv.Ptr, acc *pmem.Acc) {
	for !p.IsNull() {
		pool, off := ar.space.Resolve(p)
		next := riv.FromWord(pool.Load(off+1, acc))
		ar.push(len(ar.classes)-1, p, acc)
		p = next
	}
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
		LimboChunks:   uint64(ar.limbo.Len()),
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

// page is one carved page.
type page struct {
	ptr   riv.Ptr // the page's first word
	pool  *pmem.Pool
	off   uint64 // absolute offset of ptr
	class int
}

// page returns the page that starts at block b of the extent.
func (ext *extent) page(b, blockWords uint64, class int) page {
	return page{ptr: riv.Make(ext.ptr.Pool(), ext.ptr.Chunk(), uint32(b*blockWords)),
		pool: ext.pool, off: ext.base + b*blockWords, class: class}
}

// slot returns chunk i of the page and its absolute offset.
func (pg page) slot(i uint64, c class) (riv.Ptr, uint64) {
	rel := pageHdrLen + i*c.words
	return riv.Make(pg.ptr.Pool(), pg.ptr.Chunk(), pg.ptr.Offset()+uint32(rel)), pg.off + rel
}

// walkPages reads the page headers of one extent up to its cursor and
// hands fn its pages in address order.
func (ar *Arena) walkPages(ext *extent, acc *pmem.Acc, fn func(pg page)) {
	for b := ext.first; b < ext.cursor; {
		meta := ext.pool.Load(ext.base+b*ar.blockWords, acc)
		class, span := int(meta&0xffff), meta>>16&0xffff
		if meta>>48<<48 != pageMagic || class >= len(ar.classes) || span != ar.classes[class].span {
			return // not a page of this geometry: nothing past it is reachable
		}
		fn(ext.page(b, ar.blockWords, class))
		b += span
	}
}

// setBits sets bits [lo, hi) of a bitmap.
func setBits(bm []uint64, lo, hi uint64) {
	for ; lo < hi; lo += 64 - lo%64 {
		bm[lo/64] |= (uint64(1)<<min(hi-lo, 64-lo%64) - 1) << (lo % 64)
	}
}

// Sweep is the startup crash-leak scan, and it rebuilds every class
// list. live must call its argument with every node value word currently
// published in the structure (the engine walks the bottom level); Sweep
// follows refs (and their chains) to build the referenced set, then in
// one loop per extent over its pages lists every chunk that no live ref
// and no limbo entry reaches. A chunk whose header still reads hdrUsed is
// a leak — a publish that never landed, or a free whose header zero a
// crash reverted: the relinked count reports those, their headers are
// zeroed and persisted under one fence, and they are handed out before
// the chunks that were already free.
//
// The sweep pays for what a crash can have broken: with no page carved
// it returns before calling live at all, and it flushes only the header
// lines of the chunks it relinked, so a clean reopen flushes nothing.
//
// A ref that starts no chunk of a page below a cursor whose class holds
// its length, or a chain that runs past the segments its length names
// (a cycle would spin), is pmem.ErrBadImage: a forged image.
//
// Must run quiesced (no concurrent operations), which is the state at
// Reopen/Load time. Idempotent: a clean store sweeps zero chunks.
func (ar *Arena) Sweep(ctx *exec.Ctx, live func(emit func(word uint64))) (relinked int, err error) {
	if !slices.ContainsFunc(ar.extents, func(ext *extent) bool { return ext.cursor > ext.first }) {
		// No page was ever carved: no chunk exists for a crash to have
		// leaked, and live need not walk the structure (a store of inline
		// values reopens without reading a key).
		ar.sweepRelinked.Store(0)
		ar.sweepScanned.Store(0)
		return 0, nil
	}
	// Per extent, one bit per minimum-class slot a ref starts at or covers.
	stride := ar.chunkBlocks*ar.blockWords/minClassWords/64 + 1 // bitmap words per extent
	starts, cover := make([]uint64, stride*uint64(len(ar.extents))), make([]uint64, stride*uint64(len(ar.extents)))
	byChunk := make([][]int32, 0xff) // by pool ID and biased chunk: extent index + 1
	for i, ext := range ar.extents {
		if byChunk[ext.ptr.Pool()] == nil {
			byChunk[ext.ptr.Pool()] = make([]int32, ar.maxChunks+1)
		}
		byChunk[ext.ptr.Pool()][ext.ptr.Word()>>32&0xffff] = int32(i + 1)
	}
	// claim marks words [p, p+n) as one referenced chunk and resolves p
	// through its extent, or reports false when no extent holds them.
	claim := func(p riv.Ptr, n uint64) (*pmem.Pool, uint64, bool) {
		c, off := p.Word()>>32&0xffff, uint64(p.Offset())
		if int(p.Pool()) >= len(byChunk) || c >= uint64(len(byChunk[p.Pool()])) || byChunk[p.Pool()][c] == 0 {
			return nil, 0, false
		}
		i := uint64(byChunk[p.Pool()][c] - 1)
		ext := ar.extents[i]
		if off%minClassWords != 0 || off < ext.first*ar.blockWords || off+n > ext.cursor*ar.blockWords {
			return nil, 0, false
		}
		u := i*stride*64 + off/minClassWords
		starts[u/64] |= 1 << (u % 64)
		setBits(cover, u+1, u+(n+minClassWords-1)/minClassWords)
		return ext.pool, ext.base + off, true
	}
	mark := func(ref Ref) {
		if !ref.Chained() {
			if _, _, ok := claim(ref.ptr(), 1+uint64(ref.lenField()+7)/8); ok {
				return
			}
		} else if pool, off, ok := claim(ref.ptr(), ar.classes[len(ar.classes)-1].words); ok {
			for segs := (int(pool.Load(off, ctx.Mem)&hdrLenMask) + ar.segCap() - 1) / ar.segCap(); ok; segs-- {
				p := riv.FromWord(pool.Load(off+1, ctx.Mem))
				if p.IsNull() {
					return
				}
				pool, off, ok = claim(p, ar.classes[len(ar.classes)-1].words)
				ok = ok && segs > 1
			}
		}
		err = fmt.Errorf("%w: value %#x names no chunk of a slab page that holds it, or its chain runs past its length", pmem.ErrBadImage, uint64(ref))
	}
	live(func(w uint64) {
		if err == nil && ar.IsRef(w) {
			mark(Ref(w))
		}
	})

	// Refs still sitting in this handle's limbo are owned (they will be
	// freed through Tick/DrainQuiesced); at startup the limbo is empty,
	// so this only matters for mid-run sweeps in tests.
	ar.limbo.Each(mark)
	if err != nil {
		return 0, err
	}

	// Sort every chunk into free and leaked (header zeroed) by class,
	// consuming start bits. A cover bit on a chunk's first slot or past a
	// page's last chunk, or a start bit left over, is a ref no chunk holds.
	n := len(ar.classes)
	free, leaks, perClass, pages := make([][]riv.Ptr, n), make([][]riv.Ptr, n), make([]uint64, n), 0
	for i, ext := range ar.extents {
		base := uint64(i) * stride * 64
		ar.walkPages(ext, ctx.Mem, func(pg page) {
			c := ar.classes[pg.class]
			for s := uint64(0); s <= c.perPage; s++ {
				chunk, off := pg.slot(s, c)
				switch u := base + (off-ext.base)/minClassWords; {
				case cover[u/64]>>(u%64)&1 != 0:
					err = fmt.Errorf("%w: a value overruns the slab chunk before %v", pmem.ErrBadImage, chunk)
				case s == c.perPage:
				case starts[u/64]>>(u%64)&1 != 0:
					starts[u/64] &^= 1 << (u % 64)
				case pg.pool.Load(off, ctx.Mem)&hdrUsed != 0:
					pg.pool.Store(off, 0, ctx.Mem)
					ctx.Batch.Add(pg.pool, off, 1, ctx.Mem)
					leaks[pg.class] = append(leaks[pg.class], chunk)
				default:
					free[pg.class] = append(free[pg.class], chunk)
				}
			}
			perClass[pg.class]++
			pages++
		})
		if slices.ContainsFunc(starts[base/64:base/64+stride], func(w uint64) bool { return w != 0 }) && err == nil {
			err = fmt.Errorf("%w: a value names a word of %v that starts no chunk of a slab page", pmem.ErrBadImage, ext.ptr)
		}
	}
	if err != nil {
		return 0, err
	}
	for class := range ar.classes {
		ar.free[class].chunks = append(free[class], leaks[class]...)
		ar.classPages[class].Store(perClass[class])
		relinked += len(leaks[class])
	}
	ctx.Batch.Flush(ctx.Mem)
	ar.sweepRelinked.Store(uint64(relinked))
	ar.sweepScanned.Store(uint64(pages))
	return relinked, nil
}
