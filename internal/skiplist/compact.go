package skiplist

import (
	"upskiplist/internal/alloc"
	"upskiplist/internal/exec"
	"upskiplist/internal/riv"
)

// Compaction: recoverable reclamation of fully-tombstoned nodes.
//
// The paper leaves node reclamation as future work (§4.6: "deleting
// nodes that are full of tombstones would be beneficial"; §7 calls for
// garbage collection so "empty nodes can be reclaimed"). This file
// implements the sketch the paper gives: a log is written before a node
// is removed from the abstract set and returned to the allocator, and
// an integrity check after a crash decides whether the removal had
// completed, exactly parallel to the insertion logging of §4.1.4.
//
// Compact runs QUIESCED (a maintenance pass, like a database vacuum):
// no concurrent operations may be in flight. This sidesteps the search
// hazards concurrent physical removal creates (Pugh's pointer reversal /
// Fomitchev-Ruppert backlinks), which the paper also does not implement.
// Crash-recovery, however, is fully handled: the persistent intent log
// makes an interrupted compaction idempotently repairable at the next
// Open.

// Online reclamation (reclaim.go) reuses this exact log: state 1 covers
// a retirement's tombstone-check-through-unlink window, and the new
// state 2 covers each individual limbo-block free. The log has one slot
// and two possible writers — the quiesced Compact and the reclaimer
// goroutine — which never run concurrently (Store.Compact pauses and
// drains the reclaimer first).

// Compaction log layout within the root area (after the root object).
const (
	compOffState = 8  // 0 idle, 1 unlinking, 2 freeing a retired block
	compOffNode  = 9  // riv.Ptr of the node being removed
	compOffKey   = 10 // its first key, for post-crash identity checking
)

// Compact unlinks and reclaims every data node whose keys are all
// tombstoned. It must be called with the list quiesced. Returns the
// number of nodes reclaimed.
func (s *SkipList) Compact(ctx *exec.Ctx) (int, error) {
	defer ctx.Mem.Publish()
	// Freed blocks can be reallocated as different nodes, so every cached
	// predecessor hint in every worker must die: bumping the generation
	// makes each HintCache wipe itself on its next Validate. (Compaction
	// is quiesced, so no traversal is concurrently trusting a hint.)
	s.hintGen.Add(1)
	reclaimed := 0
	for {
		victim := s.findEmptyNode(ctx)
		if victim.IsNull() {
			break
		}
		if err := s.reclaimNode(ctx, victim); err != nil {
			return reclaimed, err
		}
		reclaimed++
	}
	// Collect blocks a reclaimer retired but never freed: a reclaimer
	// stopped with limbo still pending, or a crash while the (volatile)
	// limbo list held them and no reclaimer ran since. Such blocks are
	// fully unlinked — the state-1 intent covers the unlink window — and
	// the list is quiesced, so they free directly under a state-2 intent.
	for _, p := range s.a.RetiredBlocks() {
		s.freeRetired(ctx, p)
		reclaimed++
	}
	return reclaimed, nil
}

// freeRetired returns one unreachable KindRetired block to the allocator
// under a state-2 intent, so a crash mid-free is finished at Open.
func (s *SkipList) freeRetired(ctx *exec.Ctx, p riv.Ptr) {
	r, off := s.rootPool, s.rootOff
	r.Store(off+compOffNode, p.Word(), ctx.Mem)
	r.Store(off+compOffState, 2, ctx.Mem)
	r.Persist(off+compOffState, 2, ctx.Mem)
	s.a.Free(ctx, p)
	r.Store(off+compOffState, 0, ctx.Mem)
	r.Persist(off+compOffState, 1, ctx.Mem)
}

// findEmptyNode walks the bottom level for a fully-tombstoned node.
func (s *SkipList) findEmptyNode(ctx *exec.Ctx) riv.Ptr {
	cur := s.node(s.head).next(s, 0, ctx.Mem)
	for !cur.IsNull() && cur != s.tail {
		n := s.node(cur)
		if s.nodeFullyTombstoned(ctx, n) {
			return cur
		}
		cur = n.next(s, 0, ctx.Mem)
	}
	return riv.Null
}

func (s *SkipList) nodeFullyTombstoned(ctx *exec.Ctx, n nodeRef) bool {
	for i := 0; i < s.keysPerNode; i++ {
		if n.key(s, i, ctx.Mem) != keyEmpty && n.value(s, i, ctx.Mem) != Tombstone {
			return false
		}
	}
	// keys[0] is always set on data nodes; "fully tombstoned" means no
	// live value anywhere.
	return true
}

// reclaimNode logs the intent, unlinks the node at every level
// (top-down: a node missing upper levels is a legal transient state, a
// node missing lower ones is not), and returns its block to the
// allocator. Each step is persisted so a crash anywhere is repairable.
func (s *SkipList) reclaimNode(ctx *exec.Ctx, victim riv.Ptr) error {
	n := s.node(victim)
	r, off := s.rootPool, s.rootOff
	r.Store(off+compOffNode, victim.Word(), ctx.Mem)
	r.Store(off+compOffKey, n.key0(s, ctx.Mem), ctx.Mem)
	r.Store(off+compOffState, 1, ctx.Mem)
	r.Persist(off+compOffState, 3, ctx.Mem)

	s.unlinkEverywhere(ctx, n)
	s.a.Free(ctx, victim)

	r.Store(off+compOffState, 0, ctx.Mem)
	r.Persist(off+compOffState, 1, ctx.Mem)
	return nil
}

// unlinkEverywhere removes the node from every level it is linked at,
// top-down, persisting each unlink. Idempotent: CASes only fire where
// the node is still linked.
func (s *SkipList) unlinkEverywhere(ctx *exec.Ctx, n nodeRef) {
	key := n.key0(s, ctx.Mem)
	t := ctx.GetTowers(s.maxHeight)
	defer ctx.PutTowers(t)
	preds, succs := t.Preds, t.Succs
	s.linkTraverse(ctx, key, preds, succs)
	for level := s.maxHeight - 1; level >= 0; level-- {
		if succs[level] != n.ptr {
			continue // not linked at this level
		}
		pred := s.node(preds[level])
		next := n.next(s, level, ctx.Mem)
		if pred.casNext(s, level, n.ptr, next, ctx.Mem) {
			pred.persistNext(s, level, ctx.Mem)
		}
	}
}

// recoverCompaction finishes an interrupted compaction or retirement;
// called from Open while the structure is quiesced. Guards against the
// logged block having been freed and reallocated: under state 1 a
// KindNode victim must still carry its logged first key and be fully
// tombstoned; a KindRetired victim is unambiguous (nothing else stamps
// that kind). Under state 2 the kind alone decides — convertToBlock
// zeroes before restamping, so post-crash the block is KindRetired (free
// unfinished), KindFree (finished), or a reallocated KindNode.
func (s *SkipList) recoverCompaction(ctx *exec.Ctx) {
	r, off := s.rootPool, s.rootOff
	state := r.Load(off+compOffState, ctx.Mem)
	if state == 0 {
		return
	}
	victim := riv.FromWord(r.Load(off+compOffNode, ctx.Mem))
	key := r.Load(off+compOffKey, ctx.Mem)
	clear := func() {
		r.Store(off+compOffState, 0, ctx.Mem)
		r.Persist(off+compOffState, 1, ctx.Mem)
	}
	if victim.IsNull() {
		clear()
		return
	}
	n := s.node(victim)
	kind := n.kind(ctx.Mem)
	switch {
	case state == 2:
		// A limbo free was interrupted. Finish it unless the block already
		// lives again as a node (the free completed and the block was
		// reallocated before a later crash wrote nothing new to the log —
		// impossible in practice since the log clears first, but cheap to
		// guard). Free is idempotent on KindFree.
		if kind == alloc.KindRetired || kind == alloc.KindFree {
			s.a.Free(ctx, victim)
		}
		clear()
	case kind == alloc.KindRetired:
		// An online retirement died between its kind flip and its log
		// clear. Nobody survives a restart to hold a reference, so finish
		// the unlink (idempotent) and free the block outright.
		s.unlinkRetired(ctx, n, key, n.height(ctx.Mem))
		s.a.Free(ctx, victim)
		clear()
	case kind != alloc.KindNode:
		// Already back on a free list: the Free had completed (or nearly;
		// Free is idempotent). Re-run it to finish any partial linking.
		s.a.Free(ctx, victim)
		clear()
	case n.key0(s, ctx.Mem) != key || !s.nodeFullyTombstoned(ctx, n):
		// The block was reallocated as a live node; the old compaction
		// evidently completed.
		clear()
	default:
		// Still the tombstoned victim: finish unlinking and free it.
		s.unlinkEverywhere(ctx, n)
		s.a.Free(ctx, victim)
		clear()
	}
}
