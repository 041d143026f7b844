package skiplist

import (
	"cmp"
	"slices"

	"upskiplist/internal/exec"
	"upskiplist/internal/riv"
)

// insertStatus is the outcome of one insertIntoExistingNode attempt
// (Function 16's {continue, needSplit, oldValue} result).
type insertStatus int

const (
	stDone insertStatus = iota
	stContinue
	stNeedSplit
)

// Insert adds or updates the pair (key, value) — the paper's upsert
// (Function 13). It returns the previous value and whether the key was
// logically present before (a tombstoned slot counts as absent).
func (s *SkipList) Insert(ctx *exec.Ctx, key, value uint64) (old uint64, existed bool, err error) {
	if key < KeyMin || key > KeyMax {
		return 0, false, ErrKeyRange
	}
	if value == Tombstone {
		return 0, false, ErrValueRange
	}
	s.pin(ctx)
	defer s.unpin(ctx)
	return s.upsert(ctx, key, value)
}

func (s *SkipList) upsert(ctx *exec.Ctx, key, value uint64) (uint64, bool, error) {
	t := ctx.GetTowers(s.maxHeight)
	defer ctx.PutTowers(t)
	preds, succs := t.Preds, t.Succs
	for {
		res := s.traverse(ctx, key, preds, succs)
		pred := s.node(preds[0])
		if res.found {
			// Update path: the split lock is taken shared so the value
			// swap cannot interleave with a key transfer (Function 13
			// lines 158–162).
			if !pred.readLock(s.a.Clock().Current(), ctx.Mem) {
				continue
			}
			if pred.splitCount(ctx.Mem) != res.splitCount {
				pred.readUnlock(ctx.Mem)
				continue
			}
			old := s.update(ctx, pred, res.keyIndex, key, value)
			pred.readUnlock(ctx.Mem)
			o, ex := normPrev(old)
			return o, ex, nil
		}
		if preds[0] == s.head || s.keysPerNode == 1 {
			// The covering node stores no keys (head sentinel), or nodes
			// hold a single key and can never split: create a fresh node
			// right after the predecessor (Function 15; for K=1 this is
			// exactly Herlihy's classic insert). With K=1 the
			// predecessor's only key is its first key, which is < key, so
			// the range invariant holds for the new node.
			ok, err := s.createSuccessor(ctx, key, value, preds, succs)
			if err != nil {
				return 0, false, err
			}
			if ok {
				return 0, false, nil
			}
			continue
		}
		switch status, old := s.insertIntoExistingNode(ctx, key, value, preds, res.splitCount); status {
		case stContinue:
			continue
		case stNeedSplit:
			if err := s.splitNode(ctx, key, preds, succs); err != nil {
				return 0, false, err
			}
			continue
		default:
			o, ex := normPrev(old)
			return o, ex, nil
		}
	}
}

// normPrev maps a raw prior slot value to the public (old, existed)
// result. Empty and tombstoned slots both read as Tombstone internally;
// reporting them as (0, false) keeps operation results independent of
// which structural path ran — a fresh insert returns the same result
// whether it created a node or claimed a slot in an existing one, which
// layout-equivalence (hinted vs unhinted, sharded vs unsharded) relies
// on.
func normPrev(old uint64) (uint64, bool) {
	if old == Tombstone {
		return 0, false
	}
	return old, true
}

// update implements Function 14: CAS the value slot until the swap
// lands, persist, and return the previous value. The CAS loop gives all
// updates of one key a total order. While a snapshot is open, the prior
// value is pushed to the version log before the CAS and the entry is
// sealed by the CAS outcome (mvcc.go).
func (s *SkipList) update(ctx *exec.Ctx, n nodeRef, keyIndex int, key, value uint64) uint64 {
	for {
		old := n.value(s, keyIndex, ctx.Mem)
		if old == value {
			// Idempotent write: still persist so the linearization point
			// (persisted value, §4.5) exists. No version entry — the value
			// does not change.
			s.persistValueOp(ctx, n, keyIndex)
			return old
		}
		ent := s.vpush(key, old)
		if n.casValue(s, keyIndex, old, value, ctx.Mem) {
			s.vseal(ent, true)
			s.persistValueOp(ctx, n, keyIndex)
			return old
		}
		s.vseal(ent, false)
	}
}

// createSuccessor implements Function 15 (CreateHeadSuccessor),
// generalized to any predecessor: a brand-new node holding just (key,
// value) is created and linked right after preds[0].
func (s *SkipList) createSuccessor(ctx *exec.Ctx, key, value uint64, preds, succs []riv.Ptr) (bool, error) {
	height := s.drawHeight(ctx)
	succ := succs[0]
	newPtr, err := s.a.Alloc(ctx, preds[0], key)
	if err != nil {
		return false, err
	}
	n := s.node(newPtr)
	s.initNode(n, []uint64{key}, []uint64{value}, height, ctx.Mem)
	for l := 0; l < height; l++ {
		n.setNext(s, l, succs[l], ctx.Mem)
	}
	// One coalesced flush makes the initialized block — fields, keys and
	// all next pointers — durable with a single fence before publication
	// (§4.5).
	ctx.Batch.Add(n.pool, n.off, s.blockWords, ctx.Mem)
	ctx.Batch.Flush(ctx.Mem)
	pred := s.node(preds[0])
	// Linking the node is this key's transition from absent to present;
	// shadow the absence for any open snapshot before publication.
	ent := s.vpush(key, Tombstone)
	if !pred.casNext(s, 0, succ, newPtr, ctx.Mem) {
		s.vseal(ent, false)
		s.a.Free(ctx, newPtr)
		return false, nil
	}
	s.vseal(ent, true)
	pred.persistNext(s, 0, ctx.Mem)
	s.linkHigherLevels(ctx, n, 1, height)
	return true, nil
}

// insertIntoExistingNode implements Function 16: claim an empty key slot
// in the covering node with a CAS, then publish the value. Claiming and
// publishing are separate atomic steps; if another thread writes the
// value of a slot we claimed first, it becomes the inserter and we the
// updater, which the value-CAS loop already realizes.
func (s *SkipList) insertIntoExistingNode(ctx *exec.Ctx, key, value uint64, preds []riv.Ptr, splitCount uint64) (insertStatus, uint64) {
	pred := s.node(preds[0])
	if !pred.readLock(s.a.Clock().Current(), ctx.Mem) {
		return stContinue, 0
	}
	if pred.splitCount(ctx.Mem) != splitCount {
		pred.readUnlock(ctx.Mem)
		return stContinue, 0
	}
	// Snapshot the key block once and decide from the snapshot. Under
	// the read lock slots only move empty -> key, so a snapshot that
	// shows our key is definitive, and a claim CAS on the snapshot's
	// first empty slot either lands or fails because the slot was
	// claimed meanwhile — possibly with our own key — in which case a
	// fresh snapshot re-decides.
	buf := ctx.GetBlock(s.keysPerNode)
	for {
		pred.keyBlock(s, buf, ctx.Mem)
		found, empty, probed := searchBlockInsert(buf, key)
		ctx.Path.KeysProbed += uint64(probed)
		if found >= 0 {
			ctx.PutBlock(buf)
			old := s.update(ctx, pred, found, key, value)
			pred.readUnlock(ctx.Mem)
			return stDone, old
		}
		if empty < 0 {
			ctx.PutBlock(buf)
			pred.readUnlock(ctx.Mem)
			return stNeedSplit, 0
		}
		if pred.casKey(s, empty, keyEmpty, key, ctx.Mem) {
			ctx.PutBlock(buf)
			s.persistKeyOp(ctx, pred, empty)
			old := s.update(ctx, pred, empty, key, value)
			pred.readUnlock(ctx.Mem)
			return stDone, old
		}
		// CAS lost: another claim landed since the snapshot; retake it.
	}
}

// splitNode implements Function 20: move the upper half of a full node's
// keys into a new successor node. The write lock is held only for the
// transfer; tower building happens after release.
func (s *SkipList) splitNode(ctx *exec.Ctx, key uint64, preds, succs []riv.Ptr) error {
	pred := s.node(preds[0])
	if !pred.writeLock(s.a.Clock().Current(), ctx.Mem) {
		return nil // a concurrent insert/update/split is progressing; retry
	}
	// Collect the node's occupied slots and sort them by key. Under the
	// write lock the keys cannot change (updates need the read lock; key
	// claims do too), so both blocks can be streamed out with two bulk
	// loads instead of 2*keysPerNode pointwise ones. Everything lives in
	// one ctx buffer: a split allocates nothing from the Go heap (a fresh
	// heap page faults in under whichever split first touches it).
	kpn := s.keysPerNode
	buf := ctx.GetBlock(3 * kpn)
	defer ctx.PutBlock(buf)
	kb, vb, live := buf[:kpn], buf[kpn:2*kpn], buf[2*kpn:2*kpn]
	pred.keyBlock(s, kb, ctx.Mem)
	pred.valueBlock(s, vb, ctx.Mem)
	for i, k := range kb {
		if k != keyEmpty {
			live = append(live, uint64(i))
		}
	}
	if len(live) < 2 {
		// Not actually splittable (e.g. raced with a prior split); let
		// the caller retraverse.
		pred.writeUnlock(s.a.Clock().Current(), ctx.Mem)
		return nil
	}
	slices.SortFunc(live, func(a, b uint64) int { return cmp.Compare(kb[a], kb[b]) })
	upper := live[len(live)/2:]
	upperKey := kb[upper[0]]

	height := s.drawHeight(ctx)
	newPtr, err := s.a.Alloc(ctx, pred.ptr, upperKey)
	if err != nil {
		pred.writeUnlock(s.a.Clock().Current(), ctx.Mem)
		return err
	}
	n := s.node(newPtr)
	nb := ctx.GetBlock(2 * len(upper))
	keys, vals := nb[:len(upper)], nb[len(upper):]
	for i, slot := range upper {
		keys[i] = kb[slot]
		vals[i] = vb[slot]
	}
	s.initNode(n, keys, vals, height, ctx.Mem)
	ctx.PutBlock(nb)
	// The new node's bottom successor is the split node's current
	// successor; higher levels are populated from the traversal's succs.
	bottomSucc := pred.next(s, 0, ctx.Mem)
	n.setNext(s, 0, bottomSucc, ctx.Mem)
	for l := 1; l < height; l++ {
		n.setNext(s, l, succs[l], ctx.Mem)
	}
	ctx.Batch.Add(n.pool, n.off, s.blockWords, ctx.Mem)
	ctx.Batch.Flush(ctx.Mem)

	if !pred.casNext(s, 0, bottomSucc, newPtr, ctx.Mem) {
		s.a.Free(ctx, newPtr)
		pred.writeUnlock(s.a.Clock().Current(), ctx.Mem)
		return nil
	}

	// Commit the split: bump the split count (invalidates in-flight
	// reads) and make the new bottom link durable. The split count and
	// next[0] share the node's leading cache line, so the coalesced
	// batch pays one flush and one fence where two Persist calls paid
	// two of each. Recovery tolerates either word landing first: a lost
	// link just leaves an unreachable logged block, and the durable
	// write lock replays the erase phase below in either case.
	pred.pool.Add(pred.off+offSplitCount, 1, ctx.Mem)
	ctx.Batch.Add(pred.pool, pred.off+offNext, 1, ctx.Mem)
	ctx.Batch.Add(pred.pool, pred.off+offSplitCount, 1, ctx.Mem)
	ctx.Batch.Flush(ctx.Mem)
	// Erase what moved: upper is the sorted top half of the node's
	// distinct keys, so exactly the keys from upperKey up.
	for i := 0; i < s.keysPerNode; i++ {
		k := pred.key(s, i, ctx.Mem)
		if k != keyEmpty && k >= upperKey {
			pred.pool.Store(pred.off+s.keyOff(i), keyEmpty, ctx.Mem)
			pred.pool.Store(pred.off+s.valOff(i), Tombstone, ctx.Mem)
		}
	}
	if s.sorted {
		// The lower half keeps no guaranteed order (erases punched
		// holes); record no sorted prefix for it.
		h := metaHeight(pred.meta(ctx.Mem))
		pred.pool.Store(pred.off+offMeta, metaWord(h, 0), ctx.Mem)
	}
	pred.persistAll(s, ctx.Mem)
	pred.writeUnlock(s.a.Clock().Current(), ctx.Mem)

	s.linkHigherLevels(ctx, n, 1, height)
	return nil
}

// Get implements Function 9 (Search): locate the key and return its
// value, validating against concurrent splits via the split count and
// lock word. Unlike the paper's pseudocode, a not-found result is also
// validated — a reader that raced a split could otherwise scan the old
// node after its upper keys were erased and miss a live key.
func (s *SkipList) Get(ctx *exec.Ctx, key uint64) (uint64, bool) {
	if key < KeyMin || key > KeyMax {
		return 0, false
	}
	s.pin(ctx)
	defer s.unpin(ctx)
	t := ctx.GetTowers(s.maxHeight)
	defer ctx.PutTowers(t)
	preds, succs := t.Preds, t.Succs
	for {
		res := s.traverse(ctx, key, preds, succs)
		if !res.found {
			if preds[0] != s.head {
				n := s.node(preds[0])
				if n.isWriteLocked(ctx.Mem) || n.splitCount(ctx.Mem) != res.splitCount {
					continue
				}
			}
			return 0, false
		}
		n := s.node(preds[0])
		if n.isWriteLocked(ctx.Mem) {
			continue
		}
		value := n.value(s, res.keyIndex, ctx.Mem)
		if n.splitCount(ctx.Mem) != res.splitCount {
			continue
		}
		if value == Tombstone {
			return 0, false
		}
		return value, true
	}
}

// Contains reports whether the key is present.
func (s *SkipList) Contains(ctx *exec.Ctx, key uint64) bool {
	_, ok := s.Get(ctx, key)
	return ok
}

// Remove deletes a key by tombstoning its value (§4.6). It returns the
// removed value and whether the key was present.
func (s *SkipList) Remove(ctx *exec.Ctx, key uint64) (uint64, bool, error) {
	if key < KeyMin || key > KeyMax {
		return 0, false, ErrKeyRange
	}
	s.pin(ctx)
	defer s.unpin(ctx)
	t := ctx.GetTowers(s.maxHeight)
	defer ctx.PutTowers(t)
	preds, succs := t.Preds, t.Succs
	for {
		res := s.traverse(ctx, key, preds, succs)
		if !res.found {
			if preds[0] != s.head {
				n := s.node(preds[0])
				if n.isWriteLocked(ctx.Mem) || n.splitCount(ctx.Mem) != res.splitCount {
					continue
				}
			}
			return 0, false, nil
		}
		pred := s.node(preds[0])
		if !pred.readLock(s.a.Clock().Current(), ctx.Mem) {
			continue
		}
		if pred.splitCount(ctx.Mem) != res.splitCount {
			pred.readUnlock(ctx.Mem)
			continue
		}
		old := s.update(ctx, pred, res.keyIndex, key, Tombstone)
		pred.readUnlock(ctx.Mem)
		if s.rec != nil && old != Tombstone && s.nodeFullyTombstoned(ctx, pred) {
			// Retire-on-traversal: this remove emptied the node's last
			// live value (best-effort check — a racing insert may revive
			// it, which the sweeper re-verifies under the write lock).
			s.rec.report(pred.ptr)
		}
		o, ex := normPrev(old)
		return o, ex, nil
	}
}

// Scan performs a bottom-level range query over [lo, hi], invoking fn for
// every live pair in strictly ascending key order until fn returns
// false: one Iterator bounded at hi, so the per-node consistency and the
// ordering across concurrent splits are the Iterator's (iterator.go).
// The era pin is held across the whole call, so a value word handed to
// fn still names a live chunk while fn runs. This is the range-query
// extension the paper lists as future work.
func (s *SkipList) Scan(ctx *exec.Ctx, lo, hi uint64, fn func(key, value uint64) bool) error {
	if lo > min(hi, KeyMax) {
		return nil
	}
	s.pin(ctx)
	defer s.unpin(ctx)
	it := s.NewIterator(ctx)
	for ok := it.Seek(lo); ok && it.Key() <= hi; ok = it.Next() {
		if !fn(it.Key(), it.Value()) {
			return nil
		}
	}
	return nil
}

// Count walks the bottom level and returns the number of live keys. It
// is a debugging/verification aid, not part of the concurrent API.
func (s *SkipList) Count(ctx *exec.Ctx) int {
	defer ctx.Mem.Publish()
	total := 0
	cur := s.node(s.head).next(s, 0, ctx.Mem)
	for !cur.IsNull() && cur != s.tail {
		n := s.node(cur)
		for i := 0; i < s.keysPerNode; i++ {
			if n.key(s, i, ctx.Mem) != keyEmpty && n.value(s, i, ctx.Mem) != Tombstone {
				total++
			}
		}
		cur = n.next(s, 0, ctx.Mem)
	}
	return total
}
