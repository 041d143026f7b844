package skiplist

import (
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// Node word layout, relative to the start of the allocator block. The
// kind and epoch words are shared with the allocator (alloc.BlockKind,
// alloc.BlockEpoch) so that recovery code can classify any block. The
// first key is placed immediately after the fixed metadata so that, for
// short towers, the epoch, split count, lock, height and first key all
// share the node's first cache lines, minimizing fetches during
// traversal (§4.4: "the first key falls into the same cache line as
// additional metadata that has to be read anyway").
//
// Words 0 through 7 are the node's header line: allocator blocks start
// on a cache-line boundary, and offNext+2 <= pmem.LineWords, so kind,
// epoch, split count, lock, meta, key0, next[0] and next[1] are one
// line, which header reads with one charged line access. That read is
// one ascending pass over the line, and the split-count validation
// depends on its order: offSplitCount < offKey0 < offNext, so the split
// count a traversal records is read before the key0 and next words it
// decides from, just as the single-word loads read them. A split that
// lands after the count was read bumps it, and the caller's re-read of
// the count catches it. The epoch word comes first; it only ever moves
// from a dead epoch to the current one, and a stale reading sends the
// node to checkForRecovery, which reads it again.
const (
	offKind       = 0
	offEpoch      = 1
	offSplitCount = 2
	offSplitLock  = 3
	offMeta       = 4 // bits 0-7 height; images of older revisions may set bits above
	offKey0       = 5 // immutable copy of keys[0], co-located with metadata
	offNext       = 6 // next[level] for level in [0, maxHeight)
)

// Tombstone marks a removed (or never-written) value slot. User values
// must be below it.
const Tombstone = ^uint64(0)

// Key sentinels. User keys must lie in [KeyMin, KeyMax].
const (
	keyEmpty = uint64(0)         // an unclaimed key slot
	keyInf   = ^uint64(0)        // tail sentinel's first key
	KeyMin   = uint64(1)         // smallest user key
	KeyMax   = ^uint64(0) - 1    // largest user key
	splitWr  = uint64(1) << 63   // writer bit of the split lock
	rdMask   = uint64(1)<<20 - 1 // reader-count mask of the split lock
)

// splitRetired is the split count retire leaves in its victim; splits
// count up from zero, so no live node carries it (see reclaim.go, step 2).
const splitRetired = ^uint64(0)

// metaWord is a node's meta word for a tower of the given height.
func metaWord(height int) uint64 { return uint64(height & 0xff) }

// metaHeight reads the height back. It masks the bits above, where an
// image written with sorted-on-split nodes kept a sorted-prefix length.
func metaHeight(m uint64) int { return int(m & 0xff) }

// nodeRef is a resolved node: its pool, the absolute word offset of its
// block, and the RIV pointer it was resolved from.
type nodeRef struct {
	pool *pmem.Pool
	off  uint64
	ptr  riv.Ptr
}

// node resolves a pointer. p must be non-null.
func (s *SkipList) node(p riv.Ptr) nodeRef {
	pool, off := s.space.Resolve(p)
	return nodeRef{pool: pool, off: off, ptr: p}
}

func (s *SkipList) keyOff(i int) uint64 {
	return offNext + uint64(s.maxHeight) + uint64(i)
}

func (s *SkipList) valOff(i int) uint64 {
	return offNext + uint64(s.maxHeight) + uint64(s.keysPerNode) + uint64(i)
}

// Accessors. All take the accessing worker's NUMA node for cost
// accounting.

// header is one read of a node's header line (words [0, pmem.LineWords)).
// Each word was read atomically, in ascending order; the line as a whole
// is not a snapshot of an instant (see the layout comment above).
type header [pmem.LineWords]uint64

// header reads the node's header line with one LoadBlock: one charged
// line access where the single-word accessors charge one per word.
func (n nodeRef) header(nd *pmem.Acc) (h header) {
	n.pool.LoadBlock(n.off, h[:], nd)
	return h
}

func (h *header) kind() uint64       { return h[offKind] }
func (h *header) epoch() uint64      { return h[offEpoch] }
func (h *header) splitCount() uint64 { return h[offSplitCount] }
func (h *header) height() int        { return metaHeight(h[offMeta]) }
func (h *header) key0() uint64       { return h[offKey0] }
func (h *header) writeLocked() bool  { return h[offSplitLock]&splitWr != 0 }

// nextWordVia reads next[level] raw, mark included: from h, the node's
// header line as read when it was visited, when h is non-nil and the word
// is on that line; with one load otherwise.
func (n nodeRef) nextWordVia(h *header, level int, nd *pmem.Acc) uint64 {
	if h != nil && offNext+level < pmem.LineWords {
		return h[offNext+level]
	}
	return n.nextWord(level, nd)
}

func (n nodeRef) epoch(nd *pmem.Acc) uint64      { return n.pool.Load(n.off+offEpoch, nd) }
func (n nodeRef) splitCount(nd *pmem.Acc) uint64 { return n.pool.Load(n.off+offSplitCount, nd) }
func (n nodeRef) lockWord(nd *pmem.Acc) uint64   { return n.pool.Load(n.off+offSplitLock, nd) }
func (n nodeRef) meta(nd *pmem.Acc) uint64       { return n.pool.Load(n.off+offMeta, nd) }
func (n nodeRef) height(nd *pmem.Acc) int        { return metaHeight(n.meta(nd)) }

// nextMark is the Harris-style retirement mark, set on bit 0 of a
// retired node's own next words. Block starts are cache-line aligned, so
// a valid pointer word never has bit 0 set; a marked word makes every
// CAS that read the stripped pointer as its expected value fail, which
// is what stops a racing insert from linking a new node behind a victim
// after the victim is unlinked (the lost-insert race). Readers always
// strip the bit, so marks are invisible to traversal; they also need no
// crash handling — recovery re-runs the unlink from the intent log and
// strips on read like everyone else.
const nextMark = uint64(1)

func (n nodeRef) next(s *SkipList, level int, nd *pmem.Acc) riv.Ptr {
	return riv.FromWord(n.pool.Load(n.off+offNext+uint64(level), nd) &^ nextMark)
}

// nextWord reads a next slot raw, mark included.
func (n nodeRef) nextWord(level int, nd *pmem.Acc) uint64 {
	return n.pool.Load(n.off+offNext+uint64(level), nd)
}

// markNext sets the retirement mark on one next word. Returns once the
// mark is set (by us or an earlier attempt); a null word is left alone.
func (n nodeRef) markNext(level int, nd *pmem.Acc) {
	off := n.off + offNext + uint64(level)
	for {
		w := n.pool.Load(off, nd)
		if w == 0 || w&nextMark != 0 {
			return
		}
		if n.pool.CAS(off, w, w|nextMark, nd) {
			return
		}
	}
}

// kind reads the block's allocator kind word (shared layout: offKind ==
// alloc.BlockKind).
func (n nodeRef) kind(nd *pmem.Acc) uint64 {
	return n.pool.Load(n.off+offKind, nd)
}

func (n nodeRef) setNext(s *SkipList, level int, p riv.Ptr, nd *pmem.Acc) {
	n.pool.Store(n.off+offNext+uint64(level), p.Word(), nd)
}

func (n nodeRef) casNext(s *SkipList, level int, old, new riv.Ptr, nd *pmem.Acc) bool {
	return n.pool.CAS(n.off+offNext+uint64(level), old.Word(), new.Word(), nd)
}

func (n nodeRef) persistNext(s *SkipList, level int, nd *pmem.Acc) {
	n.pool.Persist(n.off+offNext+uint64(level), 1, nd)
}

func (n nodeRef) key(s *SkipList, i int, nd *pmem.Acc) uint64 {
	return n.pool.Load(n.off+s.keyOff(i), nd)
}

// key0 reads the node's first key from its metadata-line copy. The first
// key is immutable after initialization, so the copy never diverges from
// keys[0]; keeping it beside the epoch/lock/meta words means a traversal
// decides whether to advance with a single cache-line fetch (§4.4).
func (n nodeRef) key0(s *SkipList, nd *pmem.Acc) uint64 {
	return n.pool.Load(n.off+offKey0, nd)
}

func (n nodeRef) casKey(s *SkipList, i int, old, new uint64, nd *pmem.Acc) bool {
	return n.pool.CAS(n.off+s.keyOff(i), old, new, nd)
}

func (n nodeRef) value(s *SkipList, i int, nd *pmem.Acc) uint64 {
	return n.pool.Load(n.off+s.valOff(i), nd)
}

func (n nodeRef) casValue(s *SkipList, i int, old, new uint64, nd *pmem.Acc) bool {
	return n.pool.CAS(n.off+s.valOff(i), old, new, nd)
}

func (n nodeRef) persistValue(s *SkipList, i int, nd *pmem.Acc) {
	n.pool.Persist(n.off+s.valOff(i), 1, nd)
}

func (n nodeRef) persistKey(s *SkipList, i int, nd *pmem.Acc) {
	n.pool.Persist(n.off+s.keyOff(i), 1, nd)
}

// persistAll flushes the node's whole block.
func (n nodeRef) persistAll(s *SkipList, nd *pmem.Acc) {
	n.pool.Persist(n.off, s.blockWords, nd)
}

// Split lock operations (§4.2). The lock word packs, in one CAS-able
// word, a writer bit, a reader count, AND the failure-free epoch of the
// last locker:
//
//	[ writer:1 | epoch:43 | readers:20 ]
//
// Embedding the epoch is this reproduction's repair of the DrainReaders
// hazard the paper's linearizability analysis surfaced (§6.3): with a
// separate drain step, a live reader can register between the
// recoverer's read of the lock word and its drain CAS — the drain fails
// silently and dead threads' reader counts survive into the new epoch,
// wedging every future split of the node. Here every locker stamps the
// current epoch atomically with its count, so counts from a dead epoch
// are recognizable and are discarded by the next locker in a single CAS;
// no separate drain exists to race with. A writer bit from a dead epoch
// still means "interrupted split" and is repaired by
// CheckForNodeSplitRecovery, exactly as in the paper.
func lockEpoch(w uint64) uint64   { return w >> 20 & (1<<43 - 1) }
func lockReaders(w uint64) uint64 { return w & rdMask }
func lockWordFor(epoch, readers uint64) uint64 {
	return (epoch&(1<<43-1))<<20 | readers&rdMask
}

// readLock acquires a shared lock unless a writer holds the lock. Reader
// counts stamped with a dead epoch belong to crashed threads and are
// discarded. It spins only on reader/reader CAS races, returning false
// as soon as a writer is seen, so it cannot block behind a split.
func (n nodeRef) readLock(epoch uint64, nd *pmem.Acc) bool {
	for {
		w := n.pool.Load(n.off+offSplitLock, nd)
		if w&splitWr != 0 {
			return false
		}
		var next uint64
		if lockEpoch(w) == epoch {
			next = w + 1
		} else {
			next = lockWordFor(epoch, 1) // stale count: reset and join
		}
		if n.pool.CAS(n.off+offSplitLock, w, next, nd) {
			return true
		}
	}
}

// readUnlock releases a shared lock. The count it decrements is always
// current-epoch: only lockers of a live epoch can be running, and
// nothing erases a live epoch's counts.
func (n nodeRef) readUnlock(nd *pmem.Acc) {
	n.pool.Add(n.off+offSplitLock, ^uint64(0), nd) // -1
}

// writeLock tries once to take the exclusive lock; it succeeds when
// there is no writer and no live-epoch reader (dead-epoch reader counts
// are discarded). On success the lock word is persisted immediately,
// BEFORE any mutation: the crash-recovery path
// (CheckForNodeSplitRecovery) relies on observing the writer bit after a
// failure to know a split was in flight.
func (n nodeRef) writeLock(epoch uint64, nd *pmem.Acc) bool {
	w := n.pool.Load(n.off+offSplitLock, nd)
	if w&splitWr != 0 {
		return false
	}
	if lockEpoch(w) == epoch && lockReaders(w) != 0 {
		return false
	}
	if !n.pool.CAS(n.off+offSplitLock, w, lockWordFor(epoch, 0)|splitWr, nd) {
		return false
	}
	n.pool.Persist(n.off+offSplitLock, 1, nd)
	return true
}

func (n nodeRef) writeUnlock(epoch uint64, nd *pmem.Acc) {
	n.pool.Store(n.off+offSplitLock, lockWordFor(epoch, 0), nd)
	n.pool.Persist(n.off+offSplitLock, 1, nd)
}

// isWriteLocked reports whether a split holds the node.
func (n nodeRef) isWriteLocked(nd *pmem.Acc) bool {
	return n.lockWord(nd)&splitWr != 0
}
