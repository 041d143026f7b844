package skiplist

// Cache-conscious in-node search: the one implementation of Function 8.
//
// A node's keys occupy keysPerNode contiguous words — with the default
// geometry, two cache lines. The search bulk-loads the key block once
// into a per-worker scratch buffer (LoadBlock counts and charges one
// load per cache line, the way a streamed sequential read behaves) and
// searches the snapshot with a branch-light four-way unrolled scan.
// Sorting the keys would save compares but no line: the whole block is
// loaded either way, and lines are what a search pays for. Reading the
// block as a snapshot has exactly the consistency of keysPerNode
// independent loads (each word individually atomic, the block not a
// snapshot of an instant); callers validate with split counts and locks.

import (
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// searchBlock locates key in a snapshot of a node's key block with a
// linear scan. Slot 0 is skipped: the traversal already compared the
// node's immutable first key. Returns the slot index (-1 when absent)
// and the number of key comparisons made (the KeysProbed unit), which is
// the number of slots passed.
func searchBlock(keys []uint64, key uint64) (int, int) {
	i := 1
	for ; i+4 <= len(keys); i += 4 {
		if keys[i] == key {
			return i, i
		}
		if keys[i+1] == key {
			return i + 1, i + 1
		}
		if keys[i+2] == key {
			return i + 2, i + 2
		}
		if keys[i+3] == key {
			return i + 3, i + 3
		}
	}
	for ; i < len(keys); i++ {
		if keys[i] == key {
			return i, i
		}
	}
	return -1, max(len(keys)-1, 0)
}

// searchBlockInsert scans a full key-block snapshot for an insert
// attempt: it reports the slot holding key, the first empty slot, and
// the comparisons made. Unlike searchBlock it includes slot 0 and tracks
// empties. Inserters always claim the lowest empty slot, which is what
// keeps concurrent inserters of the same key converging on one slot.
func searchBlockInsert(keys []uint64, key uint64) (found, empty, probed int) {
	found, empty = -1, -1
	for i, k := range keys {
		probed++
		if k == key {
			found = i
			return
		}
		if k == keyEmpty && empty < 0 {
			empty = i
		}
	}
	return
}

// keyBlock bulk-loads the node's key slots [0, keysPerNode) into buf
// (len(buf) must be keysPerNode).
func (n nodeRef) keyBlock(s *SkipList, buf []uint64, nd *pmem.Acc) {
	n.pool.LoadBlock(n.off+s.keyOff(0), buf, nd)
}

// valueBlock bulk-loads the node's value slots into buf.
func (n nodeRef) valueBlock(s *SkipList, buf []uint64, nd *pmem.Acc) {
	n.pool.LoadBlock(n.off+s.valOff(0), buf, nd)
}

// prefetchHeader warms the node's leading cache line — kind, epoch,
// split count/lock, meta and the immutable first key, everything a
// descent reads to decide whether to advance.
func (n nodeRef) prefetchHeader(nd *pmem.Acc) {
	n.pool.Prefetch(n.off, nd)
}

// prefetchKeys warms the first line of the node's key block, the line an
// in-node search or snapshot touches first.
func (n nodeRef) prefetchKeys(s *SkipList, nd *pmem.Acc) {
	n.pool.Prefetch(n.off+s.keyOff(0), nd)
}

// prefetchHint warms the node a cached predecessor hint for key points
// at, before any validation load touches it — issued while the caller is
// still busy elsewhere (the batch applier uses it for op i+1 while op i
// runs). The hint may be arbitrarily stale; nothing here dereferences
// it: TryResolve rejects pointers outside the address space and
// Pool.Prefetch discards out-of-range offsets like the hardware
// instruction would, so a dangling hint costs at most two wasted
// prefetches and can never fault or perturb recovery.
func (s *SkipList) prefetchHint(ctx *exec.Ctx, key uint64) {
	if !s.foresight || !s.hints {
		return
	}
	w, ok := ctx.Hints.Get(key >> hintShift)
	if !ok {
		return
	}
	if pool, off, ok := s.space.TryResolve(riv.FromWord(w)); ok {
		pool.Prefetch(off, ctx.Mem)
		pool.Prefetch(off+s.keyOff(0), ctx.Mem)
	}
}
