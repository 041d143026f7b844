package skiplist

import (
	"upskiplist/internal/alloc"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// Retirement: recoverable reclamation of fully-tombstoned nodes.
//
// The paper leaves node reclamation as future work (§4.6: "deleting
// nodes that are full of tombstones would be beneficial"; §7 calls for
// garbage collection so "empty nodes can be reclaimed"). This file
// implements the sketch the paper gives: a log is written before a node
// is removed from the abstract set and returned to the allocator, and
// an integrity check after a crash decides whether the removal had
// completed, exactly parallel to the insertion logging of §4.1.4.
//
// There is one protocol and it has two callers. retire withdraws one
// node — write lock, durable tombstones, state-1 intent, kind flip, marks,
// unlink — and freeRetired returns one unlinked block under a state-2
// intent. Online, the worker that empties a node retires it and a later
// retire frees it after a grace period (reclaim.go); the quiesced
// Compact below retires every candidate in one pass and frees at once.
// The log has one slot: only the retire token's holder retires, and
// Store.Compact holds the token.

// Intent log layout within the root area (after the root object).
const (
	compOffState = 8  // 0 idle, 1 retiring (through unlink), 2 freeing a retired block
	compOffNode  = 9  // riv.Ptr of the node being removed
	compOffKey   = 10 // its first key, for post-crash identity checking
)

// Compact retires every data node whose keys are all tombstoned and
// returns their blocks — and those of the limbo, and of any block an
// earlier incarnation retired but never freed (a crash or a close while
// the volatile limbo held them) — to the allocator. It must be called
// with the list quiesced. Returns the number of blocks freed.
func (s *SkipList) Compact(ctx *exec.Ctx) (int, error) {
	defer ctx.Mem.Publish()
	drained := s.DrainQuiesced(ctx)
	// Freed blocks can be reallocated as different nodes, so every cached
	// predecessor hint in every worker must die: bumping the generation
	// makes each HintCache wipe itself on its next Validate. (Compaction
	// is quiesced, so no traversal is concurrently trusting a hint.)
	s.hintGen.Add(1)
	cur := s.node(s.head).next(s, 0, ctx.Mem)
	for !cur.IsNull() && cur != s.tail {
		next := s.node(cur).next(s, 0, ctx.Mem)
		s.retire(ctx, cur)
		cur = next
	}
	blocks := s.a.RetiredBlocks()
	for _, p := range blocks {
		s.freeRetired(ctx, p)
	}
	return drained + len(blocks), nil
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

// retire executes the retirement protocol on one candidate: on return
// the node is KindRetired and unlinked from every level, and its block
// awaits freeRetired. False means the node was busy or not eligible; the
// caller just moves on (a later pass will meet it again).
func (s *SkipList) retire(ctx *exec.Ctx, p riv.Ptr) bool {
	if p.IsNull() || p == s.head || p == s.tail {
		return false
	}
	n := s.node(p)
	curEpoch := s.a.Clock().Current()
	if n.kind(ctx.Mem) != alloc.KindNode || !s.nodeFullyTombstoned(ctx, n) {
		return false
	}
	// Only a node linked at the bottom level is a candidate: one may wait
	// on the retire queue while its block is freed and reused. And not one
	// whose bottom predecessor is write-locked: it may be the new half of
	// a split that has not erased its copies of the node's keys yet, or
	// never will (a crash interrupted it). Unlinked, the node would leave
	// the splitter's successor past those copies, and split repair, which
	// erases from the successor's first key up, would revive them.
	key := n.key0(s, ctx.Mem)
	t := ctx.GetTowers(s.maxHeight)
	defer ctx.PutTowers(t)
	if s.linkTraverse(ctx, key, t.Preds, t.Succs); t.Succs[0] != p || s.node(t.Preds[0]).isWriteLocked(ctx.Mem) {
		return false
	}
	// Exclusive lock: excludes value updates, key claims, splits, and
	// tower links for the whole withdrawal. Try-once — contended nodes
	// are busy nodes, the worst retire candidates anyway.
	if !n.writeLock(curEpoch, ctx.Mem) {
		return false
	}
	if n.kind(ctx.Mem) != alloc.KindNode || !s.nodeFullyTombstoned(ctx, n) {
		n.writeUnlock(curEpoch, ctx.Mem)
		return false
	}
	// Tombstones may still be dirty (group-committed removes defer their
	// persists): make the emptiness durable before logging the intent.
	n.persistAll(s, ctx.Mem)

	rp, off := s.rootPool, s.rootOff
	rp.Store(off+compOffNode, p.Word(), ctx.Mem)
	rp.Store(off+compOffKey, key, ctx.Mem)
	rp.Store(off+compOffState, 1, ctx.Mem)
	rp.Persist(off+compOffState, 3, ctx.Mem)

	// Withdraw from the abstract set: the kind flip makes traversals and
	// hint probes skip the node; the split count, set to a value no live
	// node has, invalidates every in-flight operation holding it as
	// covering predecessor and stops any later one from adopting it. One
	// line, one flush (kind, split count and key0 share the leading line).
	n.pool.Store(n.off+offKind, alloc.KindRetired, ctx.Mem)
	n.pool.Store(n.off+offSplitCount, splitRetired, ctx.Mem)
	n.pool.Persist(n.off, pmem.LineWords, ctx.Mem)
	// Poison the victim's next words so no insert CAS can succeed behind
	// it, then release — the marks keep protecting after the unlock.
	h := n.height(ctx.Mem)
	for l := 0; l < h; l++ {
		n.markNext(l, ctx.Mem)
	}
	n.writeUnlock(curEpoch, ctx.Mem)

	s.unlinkRetired(ctx, n, key, h, t.Preds)

	rp.Store(off+compOffState, 0, ctx.Mem)
	rp.Persist(off+compOffState, 1, ctx.Mem)
	return true
}

// unlinkRetired physically removes the victim from every level,
// top-down (a node missing upper levels is a legal transient state, a
// node missing lower ones is not). preds, from one linkTraverse to the
// victim's first key, seeds a per-level predecessor; each level then
// walks forward at most a few nodes (a racing split can slip a new node
// in front of the victim). The walk meets only live nodes — a strict
// predecessor is never the victim, and every earlier victim is fully
// unlinked (one retiring thread at a time) — so the unlink CAS never
// targets a marked word and cannot livelock. Idempotent, which is what
// lets recoverCompaction finish a crash-interrupted retirement with it.
func (s *SkipList) unlinkRetired(ctx *exec.Ctx, n nodeRef, key uint64, height int, preds []riv.Ptr) {
	for level := height - 1; level >= 0; level-- {
		seed := preds[level]
		for {
			pred := s.node(seed)
			found := false
			for {
				nxt := pred.next(s, level, ctx.Mem)
				if nxt == n.ptr {
					found = true
					break
				}
				if nxt.IsNull() || nxt == s.tail {
					break
				}
				c := s.node(nxt)
				if c.key0(s, ctx.Mem) > key {
					break
				}
				pred = c
			}
			if !found {
				break // not (or no longer) linked at this level
			}
			next := n.next(s, level, ctx.Mem)
			if pred.casNext(s, level, n.ptr, next, ctx.Mem) {
				pred.persistNext(s, level, ctx.Mem)
				break
			}
			// An insert swung pred's pointer under us: re-walk from the
			// head (rare — only on a CAS race with a concurrent link).
			seed = s.head
		}
	}
}

// freeRetired returns one unlinked KindRetired block to the allocator
// under a state-2 intent: a crash before the free completes is finished
// at Open, and a crash after it completes is recognized there by the
// block's kind.
func (s *SkipList) freeRetired(ctx *exec.Ctx, p riv.Ptr) {
	r, off := s.rootPool, s.rootOff
	r.Store(off+compOffNode, p.Word(), ctx.Mem)
	r.Store(off+compOffState, 2, ctx.Mem)
	r.Persist(off+compOffState, 2, ctx.Mem)
	s.a.Free(ctx, p)
	r.Store(off+compOffState, 0, ctx.Mem)
	r.Persist(off+compOffState, 1, ctx.Mem)
}

// recoverCompaction finishes an interrupted retirement or free; called
// from Open while the structure is quiesced. Under state 2 the kind alone
// decides — convertToBlock zeroes before restamping, so post-crash the
// block is KindRetired (free unfinished), KindFree (finished), or a
// reallocated KindNode. Under state 1 only a KindRetired victim has left
// the abstract set (nothing else stamps that kind, so it cannot be a
// reallocated block): nobody survives a restart to hold a reference, so
// the unlink is finished and the block freed outright, under its own
// state-2 intent so that a crash during this recovery is recoverable the
// same way. A victim whose kind flip never became durable is still a
// whole, linked, tombstoned node — the retirement is abandoned, the dead
// writer bit it may carry is repaired on sight like any interrupted
// split's, and the next pass retires the node again.
func (s *SkipList) recoverCompaction(ctx *exec.Ctx) {
	r, off := s.rootPool, s.rootOff
	state := r.Load(off+compOffState, ctx.Mem)
	if state == 0 {
		return
	}
	victim := riv.FromWord(r.Load(off+compOffNode, ctx.Mem))
	if !victim.IsNull() {
		n := s.node(victim)
		switch kind := n.kind(ctx.Mem); {
		case state == 1 && kind == alloc.KindRetired:
			key, t := r.Load(off+compOffKey, ctx.Mem), ctx.GetTowers(s.maxHeight)
			s.linkTraverse(ctx, key, t.Preds, t.Succs)
			s.unlinkRetired(ctx, n, key, n.height(ctx.Mem), t.Preds)
			ctx.PutTowers(t)
			s.freeRetired(ctx, victim)
			return
		case state == 2 && (kind == alloc.KindRetired || kind == alloc.KindFree):
			// Free is idempotent on KindFree: re-running it finishes any
			// partial free-list linking.
			s.a.Free(ctx, victim)
		}
	}
	r.Store(off+compOffState, 0, ctx.Mem)
	r.Persist(off+compOffState, 1, ctx.Mem)
}
