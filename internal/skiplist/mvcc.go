package skiplist

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// MVCC snapshots: epoch-pinned frozen reads over the live list.
//
// A snapshot is an era pinned in the reclamation Domain plus a version
// log. Opening a snapshot pins the current era E and advances the
// domain; every writer that starts after the advance sees the snapshot
// open and, before overwriting a value in place, appends a version
// entry (key, priorValue, eraTag) to the log. The value of key k in the
// frozen view is then:
//
//	the priorValue of the FIRST (append-order) committed entry for k
//	tagged with an era > E — or, when no such entry exists, the live
//	value. A Tombstone priorValue means "absent at snapshot time".
//
// Why this is a consistent cut. Workers pin the domain era on op entry,
// so after the open advances the era, a bounded wait for
// MinWorkers() > E drains every writer that began before the snapshot
// and might write without pushing an entry — their effects are fully in
// the live state before any snapshot read runs. Writers that begin
// after the advance pinned an era > E, which (sequentially consistent
// atomics) guarantees they observe the open count and push entries
// tagged > E before their value CAS lands; any reader that can observe
// the CASed value therefore also observes the entry shadowing it.
// Per-key entries are ordered: a writer reserves its log index before
// its CAS, and the next writer of the same key reads the CASed value
// before reserving, so append order agrees with version order and
// "first entry tagged > E" is exactly the value at the cut.
//
// The log is volatile machinery on persistent blocks: entries are
// stored without flushes (snapshots do not survive a crash), but the
// blocks come from the shared allocator free lists and carry
// KindVersion in their persisted kind word, so a crash leaves
// recognizable orphans that the startup sweep (alloc.VersionBlocks)
// and the per-thread allocation log reclaim. The last snapshot to
// close returns every block to the free lists after waiting out
// in-flight pushes (the outstanding counter — an EBR-style handshake).
//
// The snapshot's pinned era also acts as a grace barrier in the
// reclaimer: limbo batches tagged at or after E cannot be freed while
// the pin is held, so any node a snapshot reader could still reach
// outlives the reader (reclaim.go counts batches blocked this way).

// Version-entry word layout. Entries live in the payload of a
// KindVersion block (after the allocator's kind and epoch words), four
// words each: key, prior value, and a packed tag word carrying the era
// tag in the high bits and the entry state in the low two (the fourth
// word is alignment padding keeping two entries per cache line). The
// tag word makes each entry its own little commit protocol: the owner
// writes key/old, publishes tag|verProv, executes its value CAS, then
// seals tag|verValid (CAS won — the overwrite happened) or tag|verDead
// (CAS lost — no overwrite; the entry is noise). A scrubbed slot is
// all-zero, and tag|verProv is nonzero for every era, so readers
// distinguish unwritten from provisional and wait both out with
// Gosched — each window is a handful of instructions in the owner.
// Packing tag and state saves one charged pmem store per push and one
// charged load per drain against a split layout.
const (
	verEntryWords = 4
	verOffKey     = 0
	verOffOld     = 1
	verOffTag     = 2

	verStateBits = 2
	verStateMask = uint64(1)<<verStateBits - 1

	verUnwritten = uint64(0)
	verProv      = uint64(1)
	verValid     = uint64(2)
	verDead      = uint64(3)
)

// Errors.
var (
	ErrSnapshotsDisabled = errors.New("skiplist: snapshots not enabled (call EnableSnapshots before concurrent operations begin)")
	ErrTooManySnapshots  = errors.New("skiplist: too many concurrently open snapshots")
)

// verBlock is one resolved KindVersion block.
type verBlock struct {
	pool *pmem.Pool
	off  uint64
	ptr  riv.Ptr
}

// verEntry names one reserved log entry; the zero value means "no entry
// was pushed" (no snapshot open) and seals as a no-op. tag remembers the
// era stamped at push time so the seal can rewrite the packed word
// without re-reading it.
type verEntry struct {
	pool *pmem.Pool
	off  uint64
	tag  uint64
}

// versionLog is the volatile per-list version log. Only the block
// handles and counters live here; entry contents live in pmem blocks.
type versionLog struct {
	s        *SkipList
	perBlock uint64 // entries per block

	mu     sync.Mutex // serializes snapshot open/close
	growMu sync.Mutex // serializes block-list growth

	// open counts open snapshots; writers push entries only while it is
	// nonzero, and the last close recycles the blocks. outstanding
	// counts pushes in flight (reserved, not yet sealed) so the close
	// can wait them out before freeing. next is the entry reservation
	// cursor; reservation only succeeds below the current capacity
	// (grow-before-reserve), so every reserved slot is always backed by
	// a block and will be written — readers never wait on a hole.
	open        atomic.Int64
	outstanding atomic.Int64
	next        atomic.Uint64

	// blocks is an immutable slice, replaced wholesale under growMu.
	blocks atomic.Pointer[[]verBlock]
}

// EnableSnapshots attaches a version log (and, when online reclamation
// is not running, a reclamation-era domain of the given slot count) to
// the list. Like StartReclaim it must be called before concurrent
// operations begin: workers read the vlog and dom fields
// unsynchronized on every op. Idempotent. While no snapshot is open the
// only per-update cost is one atomic load.
func (s *SkipList) EnableSnapshots(slots int) {
	if s.vlog != nil {
		return
	}
	if s.dom == nil {
		if slots <= 0 {
			slots = 128
		}
		s.dom = epoch.NewDomain(slots)
	}
	v := &versionLog{
		s:        s,
		perBlock: (s.blockWords - alloc.BlockPayload) / verEntryWords,
	}
	empty := make([]verBlock, 0)
	v.blocks.Store(&empty)
	s.vlog = v
}

// SnapshotsEnabled reports whether EnableSnapshots has run.
func (s *SkipList) SnapshotsEnabled() bool { return s.vlog != nil }

// OldestSnapshotEra returns the smallest era pinned by an open
// snapshot, or 0 when none is open.
func (s *SkipList) OldestSnapshotEra() uint64 {
	if s.dom == nil {
		return 0
	}
	if e := s.dom.MinPinned(); e != ^uint64(0) {
		return e
	}
	return 0
}

// vpush appends a provisional version entry recording that key's value
// is about to move off old. The zero entry (and nil error) means no
// snapshot is open and nothing was pushed. A non-zero entry MUST be
// sealed with vseal after the value CAS resolves.
func (s *SkipList) vpush(ctx *exec.Ctx, key, old uint64) (verEntry, error) {
	v := s.vlog
	if v == nil || v.open.Load() == 0 {
		return verEntry{}, nil
	}
	v.outstanding.Add(1)
	if v.open.Load() == 0 {
		// The last snapshot closed between the fast check and the
		// outstanding claim: back out before touching blocks.
		v.outstanding.Add(-1)
		return verEntry{}, nil
	}
	e, err := v.reserve(ctx)
	if err != nil {
		v.outstanding.Add(-1)
		return verEntry{}, err
	}
	// Program order key/old before the packed tag publication; the era
	// is read after the open check, so a writer that starts after a
	// snapshot opened always tags past the pinned era.
	e.tag = s.dom.Era()
	e.pool.Store(e.off+verOffKey, key, ctx.Mem)
	e.pool.Store(e.off+verOffOld, old, ctx.Mem)
	e.pool.Store(e.off+verOffTag, e.tag<<verStateBits|verProv, ctx.Mem)
	return e, nil
}

// vseal commits (committed=true) or voids a pushed entry and releases
// the in-flight claim. No-op for the zero entry.
func (s *SkipList) vseal(ctx *exec.Ctx, e verEntry, committed bool) {
	if e.pool == nil {
		return
	}
	st := verDead
	if committed {
		st = verValid
	}
	e.pool.Store(e.off+verOffTag, e.tag<<verStateBits|st, ctx.Mem)
	s.vlog.outstanding.Add(-1)
}

// reserve claims the next entry slot, growing the block list when the
// cursor reaches capacity. Grow-before-reserve: a reservation only
// succeeds for a slot that already has backing, so an allocation
// failure leaves no hole a reader could wait on forever.
func (v *versionLog) reserve(ctx *exec.Ctx) (verEntry, error) {
	for {
		blocks := *v.blocks.Load()
		capEntries := uint64(len(blocks)) * v.perBlock
		idx := v.next.Load()
		if idx >= capEntries {
			if err := v.grow(ctx, idx); err != nil {
				return verEntry{}, err
			}
			continue
		}
		if v.next.CompareAndSwap(idx, idx+1) {
			b := blocks[idx/v.perBlock]
			off := b.off + alloc.BlockPayload + (idx%v.perBlock)*verEntryWords
			return verEntry{pool: b.pool, off: off}, nil
		}
	}
}

// grow appends one block so that entry index need has backing.
func (v *versionLog) grow(ctx *exec.Ctx, need uint64) error {
	v.growMu.Lock()
	defer v.growMu.Unlock()
	blocks := *v.blocks.Load()
	if uint64(len(blocks))*v.perBlock > need {
		return nil // another grower got here first
	}
	ptr, err := v.s.a.Alloc(ctx, riv.Null, 0)
	if err != nil {
		return err
	}
	pool, off := v.s.space.Resolve(ptr)
	// Scrub the entry tag words (a popped free block's payload may be
	// stale): a slot counts as unwritten exactly while its packed tag
	// word is zero, and key/old are only read behind that gate, so the
	// tag words are the only ones that need clearing. Re-stamp the
	// persisted kind so a crash leaves a recognizable orphan for the
	// startup sweep. Entry stores themselves are never flushed — the
	// log does not survive a crash and doesn't have to.
	for e := uint64(0); e < v.perBlock; e++ {
		pool.Store(off+alloc.BlockPayload+e*verEntryWords+verOffTag, 0, ctx.Mem)
	}
	pool.Store(off+alloc.BlockKind, alloc.KindVersion, ctx.Mem)
	pool.Persist(off+alloc.BlockKind, 1, ctx.Mem)
	// Publish with amortized growth. Appending into spare capacity is
	// safe: concurrent readers hold shorter slice headers and never
	// index past their length, and the longer header is published by
	// the atomic store below. Wholesale copy-per-block would be
	// quadratic in the log size and lands on the writers' push path.
	var grown []verBlock
	if cap(blocks) > len(blocks) {
		grown = append(blocks, verBlock{pool: pool, off: off, ptr: ptr})
	} else {
		newCap := 2 * cap(blocks)
		if newCap < 8 {
			newCap = 8
		}
		grown = make([]verBlock, len(blocks)+1, newCap)
		copy(grown, blocks)
		grown[len(blocks)] = verBlock{pool: pool, off: off, ptr: ptr}
	}
	v.blocks.Store(&grown)
	return nil
}

// ListSnap is one open snapshot of one list: a pinned era plus read
// methods resolving the frozen view. Reads may run from any number of
// goroutines (each with its own ctx and its own iterators); Release
// must not race with reads of the same snapshot.
type ListSnap struct {
	s        *SkipList
	era      uint64
	pin      int
	released bool

	// Shared overlay: the version log digested up to odrained entries.
	// Because the first committed entry per key wins, a binding never
	// changes once set — the digest is monotone — so every reader of
	// this snapshot shares it instead of re-reading the log from entry
	// zero on each Seek or Get. okeys lists the overlay keys in drain
	// order so iterators can consume increments by index.
	omu      sync.Mutex
	odrained uint64
	overlay  map[uint64]uint64
	okeys    []uint64
}

// advanceLocked digests log entries [odrained, limit) into the shared
// overlay. First committed entry per key wins — it records the value at
// the cut; later entries shadow post-snapshot values. Caller holds omu.
func (p *ListSnap) advanceLocked(ctx *exec.Ctx, limit uint64) {
	if p.odrained >= limit {
		return
	}
	v := p.s.vlog
	blocks := *v.blocks.Load()
	for ; p.odrained < limit; p.odrained++ {
		idx := p.odrained
		b := blocks[idx/v.perBlock]
		off := b.off + alloc.BlockPayload + (idx%v.perBlock)*verEntryWords
		ts := waitWritten(ctx, b.pool, off)
		key := b.pool.Load(off+verOffKey, ctx.Mem)
		if ts = waitSealed(ctx, b.pool, off, ts); ts&verStateMask != verValid {
			continue
		}
		if ts>>verStateBits <= p.era {
			continue // overwrite linearized before the snapshot opened
		}
		if _, dup := p.overlay[key]; dup {
			continue
		}
		p.overlay[key] = b.pool.Load(off+verOffOld, ctx.Mem)
		p.okeys = append(p.okeys, key)
	}
}

// AcquireSnapshot opens a snapshot of the list's current state.
func (s *SkipList) AcquireSnapshot(ctx *exec.Ctx) (*ListSnap, error) {
	v := s.vlog
	if v == nil {
		return nil, ErrSnapshotsDisabled
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	// Order matters: the open count goes up BEFORE the era advances, so
	// a worker pinned past the old era provably sees it (see the file
	// comment); the pin lands before the advance so no limbo batch
	// tagged with the pinned era can slip through a reclaim scan.
	v.open.Add(1)
	id, era, ok := s.dom.PinCurrent()
	if !ok {
		v.closeLocked(ctx)
		return nil, ErrTooManySnapshots
	}
	s.dom.Advance()
	// Drain writers that began before the advance: they may overwrite
	// values without pushing entries, so the cut is consistent only once
	// every one of them has exited. Ops are short; this is a bounded
	// spin in practice.
	for s.dom.MinWorkers() <= era {
		runtime.Gosched()
	}
	return &ListSnap{s: s, era: era, pin: id, overlay: make(map[uint64]uint64)}, nil
}

// Era returns the snapshot's pinned era.
func (p *ListSnap) Era() uint64 { return p.era }

// Release closes the snapshot: unpins the era (unblocking reclaim) and,
// when this was the last open snapshot, recycles every version block.
// Idempotent. Must not race with reads of this same snapshot.
func (p *ListSnap) Release(ctx *exec.Ctx) {
	v := p.s.vlog
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.released {
		return
	}
	p.released = true
	p.s.dom.Unpin(p.pin)
	v.closeLocked(ctx)
}

// closeLocked decrements the open count and, at zero, waits out
// in-flight pushes and returns every block to the allocator. Callers
// hold v.mu (which also excludes a concurrent open).
func (v *versionLog) closeLocked(ctx *exec.Ctx) {
	if v.open.Add(-1) > 0 {
		return
	}
	// Writers already past the open check still hold outstanding claims;
	// they finish without needing any lock we hold.
	for v.outstanding.Load() != 0 {
		runtime.Gosched()
	}
	blocks := *v.blocks.Load()
	empty := make([]verBlock, 0)
	v.blocks.Store(&empty)
	v.next.Store(0)
	for _, b := range blocks {
		v.s.a.Free(ctx, b.ptr)
	}
}

// waitWritten spins until the entry's packed tag word leaves the
// scrubbed all-zero (unwritten) state, returning the word.
func waitWritten(ctx *exec.Ctx, pool *pmem.Pool, off uint64) uint64 {
	for {
		ts := pool.Load(off+verOffTag, ctx.Mem)
		if ts != 0 {
			return ts
		}
		runtime.Gosched()
	}
}

// waitSealed spins until the packed tag word reaches verValid or
// verDead in its state bits, returning the word.
func waitSealed(ctx *exec.Ctx, pool *pmem.Pool, off uint64, ts uint64) uint64 {
	for ts&verStateMask == verProv {
		runtime.Gosched()
		ts = pool.Load(off+verOffTag, ctx.Mem)
	}
	return ts
}

// Get returns key's value in the frozen view. The live value is read
// FIRST, then the log: an overwrite whose entry the scan could miss
// must then have landed after the live read, in which case the live
// read already returned the frozen (prior) value.
func (p *ListSnap) Get(ctx *exec.Ctx, key uint64) (uint64, bool) {
	liveV, liveOK := p.s.Get(ctx, key)
	if old, hit := p.lookup(ctx, key); hit {
		if old == Tombstone {
			return 0, false
		}
		return old, true
	}
	return liveV, liveOK
}

// Contains reports whether key is present in the frozen view.
func (p *ListSnap) Contains(ctx *exec.Ctx, key uint64) bool {
	_, ok := p.Get(ctx, key)
	return ok
}

// lookup resolves key against the shared overlay, digesting any log
// entries appended since the last read first. Amortized O(1) per call:
// each log entry is read from pmem exactly once per snapshot.
func (p *ListSnap) lookup(ctx *exec.Ctx, key uint64) (uint64, bool) {
	limit := p.s.vlog.next.Load()
	p.omu.Lock()
	p.advanceLocked(ctx, limit)
	old, hit := p.overlay[key]
	p.omu.Unlock()
	return old, hit
}

// Scan invokes fn for every pair of the frozen view in [lo, hi], in
// ascending key order, until fn returns false.
func (p *ListSnap) Scan(ctx *exec.Ctx, lo, hi uint64, fn func(key, value uint64) bool) error {
	it := p.NewIterator(ctx)
	for ok := it.Seek(lo); ok; ok = it.Next() {
		if it.Key() > hi {
			return nil
		}
		if !fn(it.Key(), it.Value()) {
			return nil
		}
	}
	return nil
}

// SnapIterator is a forward cursor over the frozen view: a live
// Iterator merged with the snapshot's shared overlay. After every step
// of the live cursor the log is drained up to its current end; because
// a writer's entry is published before its value CAS, any pair the
// live cursor loaded reflecting an overwrite has its shadowing entry
// visible to the drain that follows the load — so the overlay decides
// every emitted pair. Overlay keys the live cursor will never surface
// (deleted after the snapshot, or sitting in nodes the cursor already
// passed or that were reclaimed) are held in a min-heap and merged in
// at their ordered position. Entries recording a key's creation after
// the snapshot carry a Tombstone prior value and suppress the key.
// Not safe for concurrent use; create one per goroutine.
type SnapIterator struct {
	snap *ListSnap
	ctx  *exec.Ctx
	it   *Iterator

	seen uint64   // log cursor covered by the last drain; skip-lock bound
	ki   int      // shared okeys consumed into the heap
	heap []uint64 // overlay keys awaiting ordered emission
	lo   uint64   // Seek lower bound

	lastEmitted uint64
	emitted     bool

	curK, curV uint64
	valid      bool
	vbuf       []byte // ValueBytes scratch
}

// NewIterator returns an unpositioned frozen-view cursor; Seek before
// Next. The heap state is rebuilt per Seek (from the shared overlay,
// without re-reading the log), so re-seeking is valid.
func (p *ListSnap) NewIterator(ctx *exec.Ctx) *SnapIterator {
	return &SnapIterator{
		snap: p, ctx: ctx,
		it: p.s.NewIterator(ctx),
	}
}

// Seek positions the cursor at the first frozen-view key >= key.
func (si *SnapIterator) Seek(key uint64) bool {
	if key < KeyMin {
		key = KeyMin
	}
	si.lo = key
	si.seen = 0
	si.ki = 0
	si.heap = si.heap[:0]
	si.emitted = false
	si.lastEmitted = 0
	si.it.Seek(key)
	return si.settle()
}

// Next advances past the current pair.
func (si *SnapIterator) Next() bool {
	if !si.valid {
		return false
	}
	return si.settle()
}

// Valid reports whether the cursor is on a pair.
func (si *SnapIterator) Valid() bool { return si.valid }

// Key returns the current key; only meaningful when Valid.
func (si *SnapIterator) Key() uint64 { return si.curK }

// Value returns the current value; only meaningful when Valid.
func (si *SnapIterator) Value() uint64 { return si.curV }

// ValueBytes returns the current value's decoded bytes (empty without a
// decoder installed). Unlike the live Iterator, decoding lazily here is
// safe: the open snapshot pins its acquisition era for its whole
// lifetime, so no chunk a frozen value references can be freed before
// Release. The slice is valid until the next cursor call.
func (si *SnapIterator) ValueBytes() []byte {
	if si.snap.s.decode == nil {
		return nil
	}
	si.vbuf = si.snap.s.decode(si.curV, si.vbuf[:0], si.ctx.Mem)
	return si.vbuf
}

// settle advances to the next frozen-view pair: the smaller of the live
// cursor's key and the pending overlay heap's top, with the overlay
// winning ties (the entry records the frozen value of the key).
func (si *SnapIterator) settle() bool {
	for {
		si.drain()
		for len(si.heap) > 0 && (si.heap[0] < si.lo || (si.emitted && si.heap[0] <= si.lastEmitted)) {
			si.popHeap() // already covered by an emitted (or suppressed) key
		}
		innerOK := si.it.Valid()
		var lk uint64
		if innerOK {
			lk = si.it.Key()
		}
		if len(si.heap) > 0 && (!innerOK || si.heap[0] < lk) {
			hk := si.popHeap()
			hv, _ := si.overlayGet(hk)
			si.lastEmitted, si.emitted = hk, true
			if hv == Tombstone {
				continue // created after the snapshot: absent
			}
			si.curK, si.curV, si.valid = hk, hv, true
			return true
		}
		if !innerOK {
			si.valid = false
			return false
		}
		lv := si.it.Value()
		si.it.Next() // pre-advance; the next settle drains after this load
		if si.emitted && lk <= si.lastEmitted {
			continue
		}
		si.lastEmitted, si.emitted = lk, true
		if ov, hit := si.overlayGet(lk); hit {
			if ov == Tombstone {
				continue // created after the snapshot: absent
			}
			si.curK, si.curV, si.valid = lk, ov, true
			return true
		}
		si.curK, si.curV, si.valid = lk, lv, true
		return true
	}
}

// overlayGet reads one key's binding from the shared overlay.
func (si *SnapIterator) overlayGet(k uint64) (uint64, bool) {
	p := si.snap
	p.omu.Lock()
	v, ok := p.overlay[k]
	p.omu.Unlock()
	return v, ok
}

// drain advances the shared overlay to the log's current end and feeds
// the keys this iterator has not yet consumed into its merge heap.
// While the snapshot is open the log cursor is monotone, so when it is
// not past si.seen the shared overlay cannot have grown either and the
// drain is a single atomic load.
func (si *SnapIterator) drain() {
	limit := si.snap.s.vlog.next.Load()
	if limit <= si.seen {
		return
	}
	p := si.snap
	p.omu.Lock()
	p.advanceLocked(si.ctx, limit)
	for ; si.ki < len(p.okeys); si.ki++ {
		key := p.okeys[si.ki]
		if key >= si.lo && (!si.emitted || key > si.lastEmitted) {
			si.pushHeap(key)
		}
	}
	si.seen = p.odrained
	p.omu.Unlock()
}

// pushHeap/popHeap: a plain binary min-heap over overlay keys.
func (si *SnapIterator) pushHeap(k uint64) {
	si.heap = append(si.heap, k)
	i := len(si.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if si.heap[parent] <= si.heap[i] {
			break
		}
		si.heap[parent], si.heap[i] = si.heap[i], si.heap[parent]
		i = parent
	}
}

func (si *SnapIterator) popHeap() uint64 {
	top := si.heap[0]
	last := len(si.heap) - 1
	si.heap[0] = si.heap[last]
	si.heap = si.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(si.heap) && si.heap[l] < si.heap[small] {
			small = l
		}
		if r < len(si.heap) && si.heap[r] < si.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		si.heap[i], si.heap[small] = si.heap[small], si.heap[i]
		i = small
	}
	return top
}

// Cursor is the ordered forward-cursor contract shared by Iterator,
// SnapIterator and Merged, so shard merging works over either live or
// frozen sources.
type Cursor interface {
	Seek(key uint64) bool
	Next() bool
	Valid() bool
	Key() uint64
	Value() uint64
	// ValueBytes returns the current value decoded to bytes when the
	// list has a value decoder installed (SetValueDecoder); empty
	// otherwise. The slice is valid until the next cursor call.
	ValueBytes() []byte
}

var (
	_ Cursor = (*Iterator)(nil)
	_ Cursor = (*SnapIterator)(nil)
	_ Cursor = (*Merged)(nil)
)
