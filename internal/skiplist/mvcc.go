package skiplist

import (
	"errors"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"upskiplist/internal/exec"
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
// The log is volatile and lives in Go memory, like Jiffy's version
// objects: snapshots do not survive a crash, so nothing about the log
// is persisted, no writer touches a pool to record a prior value, and a
// crash leaves nothing behind to sweep. Entries sit in segments that
// double in size (segment j holds 64<<j entries) behind a directory
// whose slots are installed by CAS before the cursor moves onto them,
// so reserving an entry never fails and never takes a lock. The last
// snapshot to close drops every segment after waiting out in-flight
// pushes (the outstanding counter — an EBR-style handshake).
//
// The snapshot's pinned era also acts as a grace barrier in the
// node limbo: limbo batches tagged at or after E cannot be freed while
// the pin is held, so any node a snapshot reader could still reach
// outlives the reader (reclaim.go counts batches blocked this way).

// Version-entry tag word: the era tag in the high bits and the entry
// state in the low two. The tag word makes each entry its own little
// commit protocol: the owner writes key/old, publishes tag|verProv,
// executes its value CAS, then seals tag|verValid (CAS won — the
// overwrite happened) or tag|verDead (CAS lost — no overwrite; the
// entry is noise). A fresh slot's tag is zero, and tag|verProv is
// nonzero for every era, so readers wait out both the unwritten and
// the provisional state (sealed) — each window is a handful of
// instructions in the owner.
const (
	verStateBits = 2
	verStateMask = uint64(1)<<verStateBits - 1

	verProv  = uint64(1)
	verValid = uint64(2)
	verDead  = uint64(3)

	// verSeg0Bits sizes the first segment (1<<verSeg0Bits entries);
	// verSegs directory slots then cover every 64-bit entry index.
	verSeg0Bits = 6
	verSegs     = 64 - verSeg0Bits
)

// ErrTooManySnapshots reports a snapshot open with every pin slot taken.
var ErrTooManySnapshots = errors.New("skiplist: too many concurrently open snapshots")

// verEntry is one version-log slot. key and old are plain fields: the
// owner writes them before it publishes the tag, and readers read them
// only after loading a sealed tag.
type verEntry struct {
	key, old uint64
	tag      atomic.Uint64
}

// versionLog is the volatile per-list version log. Every list has one
// from Create/Open on; while no snapshot is open it costs a writer one
// atomic load per update.
type versionLog struct {
	mu sync.Mutex // serializes snapshot open/close

	// open counts open snapshots; writers push entries only while it is
	// nonzero, and the last close drops the segments. outstanding counts
	// pushes in flight (reserved, not yet sealed) so the close can wait
	// them out first. next is the entry reservation cursor; it only
	// moves onto an index whose segment is installed (grow-before-
	// reserve), so every index below it has backing and a writer that
	// will seal it — readers never wait on an allocation.
	open        atomic.Int64
	outstanding atomic.Int64
	next        atomic.Uint64

	// waiting counts readers stalled on an unsealed entry (see sealed).
	waiting atomic.Int64

	// segs is the segment directory; slot j, once installed, holds
	// 64<<j entries (see verSlot).
	segs [verSegs]atomic.Pointer[[]verEntry]
}

// VersionLogLen returns the number of entries the version log holds:
// every push since the last moment no snapshot was open, 0 with none
// open.
func (s *SkipList) VersionLogLen() uint64 { return s.vlog.next.Load() }

// vpush appends a provisional version entry recording that key's value
// is about to move off old. nil means no snapshot is open and nothing
// was pushed. A non-nil entry MUST be sealed with vseal after the value
// CAS resolves.
func (s *SkipList) vpush(key, old uint64) *verEntry {
	v := s.vlog
	if v.open.Load() == 0 {
		return nil
	}
	v.outstanding.Add(1)
	if v.open.Load() == 0 {
		// The last snapshot closed between the fast check and the
		// outstanding claim: back out before touching the log.
		v.outstanding.Add(-1)
		return nil
	}
	e := v.reserve()
	e.key, e.old = key, old
	// The era is read after the open check, so a writer that starts
	// after a snapshot opened always tags past the pinned era.
	e.tag.Store(s.dom.Era()<<verStateBits | verProv)
	return e
}

// vseal commits (committed=true) or voids a pushed entry and releases
// the in-flight claim. No-op for nil.
func (s *SkipList) vseal(e *verEntry, committed bool) {
	if e == nil {
		return
	}
	st := verDead
	if committed {
		st = verValid
	}
	e.tag.Store(e.tag.Load()&^verStateMask | st)
	s.vlog.outstanding.Add(-1)
	if s.vlog.waiting.Load() != 0 {
		runtime.Gosched()
	}
}

// verSlot locates entry idx: idx+64 has its high bit at position k,
// which selects segment k-6 (of 1<<k entries) and the offset below
// that bit.
func verSlot(idx uint64) (seg int, off uint64) {
	n := idx + 1<<verSeg0Bits
	k := bits.Len64(n) - 1
	return k - verSeg0Bits, n - 1<<k
}

// reserve claims the next entry slot, installing the segment it falls
// in first when nobody has. Installing is a CAS on the directory slot;
// a writer that loses it drops its allocation. Nothing here can fail.
func (v *versionLog) reserve() *verEntry {
	for {
		idx := v.next.Load()
		j, off := verSlot(idx)
		seg := v.segs[j].Load()
		if seg == nil {
			fresh := make([]verEntry, 1<<(j+verSeg0Bits))
			v.segs[j].CompareAndSwap(nil, &fresh)
			continue
		}
		if v.next.CompareAndSwap(idx, idx+1) {
			return &(*seg)[off]
		}
	}
}

// entry returns reserved entry idx (below next, so its segment exists).
func (v *versionLog) entry(idx uint64) *verEntry {
	j, off := verSlot(idx)
	return &(*v.segs[j].Load())[off]
}

// sealed waits until the entry's tag word is sealed (valid or dead),
// returning it. An owner that is running seals within a few
// instructions; one that was preempted inside its window needs a
// processor first. Writers never block on the log, so a yielding reader
// would queue behind whole time slices of them while the log runs away
// from it; instead it raises waiting, and every writer yields after its
// next seal (vseal) until the stalled owner has run.
func (v *versionLog) sealed(e *verEntry) uint64 {
	ts := e.tag.Load()
	if ts&verStateMask < verValid {
		v.waiting.Add(1)
		for ; ts&verStateMask < verValid; ts = e.tag.Load() {
			runtime.Gosched()
		}
		v.waiting.Add(-1)
	}
	return ts
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
func (p *ListSnap) advanceLocked(limit uint64) {
	for v := p.s.vlog; p.odrained < limit; p.odrained++ {
		e := v.entry(p.odrained)
		ts := v.sealed(e)
		if ts&verStateMask != verValid || ts>>verStateBits <= p.era {
			continue // no overwrite, or one linearized before the snapshot opened
		}
		if _, dup := p.overlay[e.key]; dup {
			continue
		}
		p.overlay[e.key] = e.old
		p.okeys = append(p.okeys, e.key)
	}
}

// AcquireSnapshot opens a snapshot of the list's current state. Opening
// touches no pool; the context is the reader's, as for the reads.
func (s *SkipList) AcquireSnapshot(_ *exec.Ctx) (*ListSnap, error) {
	v := s.vlog
	v.mu.Lock()
	defer v.mu.Unlock()
	// Order matters: the open count goes up BEFORE the era advances, so
	// a worker pinned past the old era provably sees it (see the file
	// comment); the pin lands before the advance so no limbo batch
	// tagged with the pinned era can slip through a reclaim scan.
	v.open.Add(1)
	id, era, ok := s.dom.PinCurrent()
	if !ok {
		v.closeLocked()
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
// when this was the last open snapshot, drops the version log.
// Idempotent. Must not race with reads of this same snapshot.
func (p *ListSnap) Release(_ *exec.Ctx) {
	v := p.s.vlog
	v.mu.Lock()
	defer v.mu.Unlock()
	if p.released {
		return
	}
	p.released = true
	p.s.dom.Unpin(p.pin)
	v.closeLocked()
}

// closeLocked decrements the open count and, at zero, waits out
// in-flight pushes and drops every segment. Callers hold v.mu (which
// also excludes a concurrent open).
func (v *versionLog) closeLocked() {
	if v.open.Add(-1) > 0 {
		return
	}
	// Writers already past the open check still hold outstanding claims;
	// they finish without needing any lock we hold.
	for v.outstanding.Load() != 0 {
		runtime.Gosched()
	}
	v.next.Store(0)
	for i := range v.segs {
		v.segs[i].Store(nil)
	}
}

// Get returns key's value in the frozen view. The live value is read
// FIRST, then the log: an overwrite whose entry the scan could miss
// must then have landed after the live read, in which case the live
// read already returned the frozen (prior) value.
func (p *ListSnap) Get(ctx *exec.Ctx, key uint64) (uint64, bool) {
	liveV, liveOK := p.s.Get(ctx, key)
	if old, hit := p.lookup(key); hit {
		if old == Tombstone {
			return 0, false
		}
		return old, true
	}
	return liveV, liveOK
}

// lookup resolves key against the shared overlay, digesting any log
// entries appended since the last read first. Amortized O(1) per call:
// each log entry is digested exactly once per snapshot.
func (p *ListSnap) lookup(key uint64) (uint64, bool) {
	limit := p.s.vlog.next.Load()
	p.omu.Lock()
	p.advanceLocked(limit)
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
		it: p.s.NewScanIterator(ctx), // Seek and Next pin around its moves
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
	si.snap.s.pin(si.ctx)
	defer si.snap.s.unpin(si.ctx)
	si.it.Seek(key)
	return si.settle()
}

// Next advances past the current pair.
func (si *SnapIterator) Next() bool {
	if !si.valid {
		return false
	}
	si.snap.s.pin(si.ctx)
	defer si.snap.s.unpin(si.ctx)
	return si.settle()
}

// Valid reports whether the cursor is on a pair.
func (si *SnapIterator) Valid() bool { return si.valid }

// Key returns the current key; only meaningful when Valid.
func (si *SnapIterator) Key() uint64 { return si.curK }

// Value returns the current value; only meaningful when Valid.
func (si *SnapIterator) Value() uint64 { return si.curV }

// ValueBytes returns the current value's decoded bytes (empty without a
// decoder installed). Seek and Next hold one pin around the live
// cursor's moves, so the live cursor decodes nothing; the frozen value
// is decoded here, with no worker pin needed: the open snapshot pins its
// acquisition era for its whole lifetime, so no chunk a frozen value
// references can be freed before Release. The slice is valid until the
// next cursor call.
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
	p.advanceLocked(limit)
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
	// otherwise. A cursor decodes only the values it is asked for. The
	// slice is valid until the next cursor call.
	ValueBytes() []byte
}

var (
	_ Cursor = (*Iterator)(nil)
	_ Cursor = (*SnapIterator)(nil)
	_ Cursor = (*Merged)(nil)
)
