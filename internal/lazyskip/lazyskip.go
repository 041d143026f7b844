// Package lazyskip implements the paper's third contender (§5.1.2): a
// lock-based skip list adapted directly from Herlihy et al.'s lazy skip
// list, made recoverable with libpmemobj-style transactions (package
// pmdktx) and addressed with two-word fat pointers.
//
// Per the paper, this is "an example of what can be built using the
// transactional PMEM programming techniques as prescribed by the PMDK":
// one key per node, per-node spinlocks, every structural mutation and
// value update wrapped in an undo-logged transaction. Its recovery is
// libpmemobj's: roll back the per-thread transaction logs, O(threads).
//
// Node locks live in persistent words but are logically volatile: a lock
// stamped with an epoch older than the current failure-free epoch is
// stale (its owner died in a crash) and is stolen rather than waited on,
// which keeps recovery free of an O(n) lock-reinitialization pass.
package lazyskip

import (
	"errors"
	"runtime"

	"upskiplist/internal/exec"
	"upskiplist/internal/pmdktx"
	"upskiplist/internal/pmem"
)

// Node word layout (within the pmdktx heap).
const (
	nOffLock   = 0 // epoch<<1|1 when held, 0 when free
	nOffMarked = 1
	nOffLinked = 2 // fullyLinked
	nOffHeight = 3
	nOffKey    = 4
	nOffValue  = 5
	nOffNext   = 6 // fat pointers: 2 words per level
)

// Root object layout.
const (
	rOffMagic  = 0
	rOffHeight = 1
	rOffEpoch  = 2
	rOffHead   = 3 // fat pointer (2 words)
	rootWords  = 8
)

const magic = 0x4C415A59534B4950

// Key sentinels; user keys in [1, ^0-1].
const (
	keyNegInf = uint64(0)
	keyPosInf = ^uint64(0)
)

// Tombstone is returned as "previous value" when a slot held nothing.
const Tombstone = ^uint64(0)

// Errors.
var (
	ErrNotFormatted = errors.New("lazyskip: heap holds no lazy skip list")
	ErrKeyRange     = errors.New("lazyskip: key out of range")
	ErrValueRange   = errors.New("lazyskip: value out of range")
)

// List is a handle to a persistent lazy skip list.
type List struct {
	h         *pmdktx.Heap
	pool      *pmem.Pool
	root      uint64 // offset of root object
	head      uint64 // offset of head node (cached from the fat pointer)
	maxHeight int
}

func nodeWords(maxHeight int) uint64 { return nOffNext + 2*uint64(maxHeight) }

// Create builds a new list in the heap.
func Create(h *pmdktx.Heap, maxHeight int) (*List, error) {
	if maxHeight < 1 || maxHeight > 32 {
		return nil, errors.New("lazyskip: bad height")
	}
	ctx := exec.NewCtx(0, -1)
	defer ctx.Mem.Publish()
	pool := h.Pool()

	root, err := h.Alloc(ctx, rootWords)
	if err != nil {
		return nil, err
	}
	l := &List{h: h, pool: pool, root: root, maxHeight: maxHeight}

	tail, err := l.allocNode(ctx, keyPosInf, 0, maxHeight)
	if err != nil {
		return nil, err
	}
	head, err := l.allocNode(ctx, keyNegInf, 0, maxHeight)
	if err != nil {
		return nil, err
	}
	for lv := 0; lv < maxHeight; lv++ {
		l.storeFat(ctx, head+nOffNext+2*uint64(lv), tail)
	}
	pool.Store(head+nOffLinked, 1, ctx.Mem)
	pool.Store(tail+nOffLinked, 1, ctx.Mem)
	pool.Persist(head, nodeWords(maxHeight), ctx.Mem)
	pool.Persist(tail, nodeWords(maxHeight), ctx.Mem)

	pool.Store(root+rOffHeight, uint64(maxHeight), ctx.Mem)
	pool.Store(root+rOffEpoch, 1, ctx.Mem)
	pool.Store(root+rOffHead, 1, ctx.Mem) // fat ptr pool word (single-pool baseline)
	pool.Store(root+rOffHead+1, head, ctx.Mem)
	pool.Persist(root, rootWords, ctx.Mem)
	pool.Store(root+rOffMagic, magic, ctx.Mem)
	pool.Persist(root+rOffMagic, 1, ctx.Mem)

	h.SetRoot(pmdktx.FatPtr{PoolID: 1, Off: root})
	l.head = head
	return l, nil
}

// Open attaches to an existing list. afterCrash advances the failure-free
// epoch (staling all locks) and rolls back interrupted transactions.
func Open(h *pmdktx.Heap, afterCrash bool) (*List, error) {
	ctx := exec.NewCtx(0, -1)
	defer ctx.Mem.Publish()
	rp := h.Root(ctx)
	if rp.IsNull() {
		return nil, ErrNotFormatted
	}
	pool := h.Pool()
	root := rp.Off
	if pool.Load(root+rOffMagic, nil) != magic {
		return nil, ErrNotFormatted
	}
	l := &List{
		h: h, pool: pool, root: root,
		maxHeight: int(pool.Load(root+rOffHeight, nil)),
		head:      pool.Load(root+rOffHead+1, nil),
	}
	if afterCrash {
		h.Recover(ctx)
		pool.Store(root+rOffEpoch, pool.Load(root+rOffEpoch, nil)+1, nil)
		pool.Persist(root+rOffEpoch, 1, nil)
	}
	return l, nil
}

// curEpoch reads the list's failure-free epoch, used to detect stale
// (dead-owner) locks.
func (l *List) curEpoch(nd *pmem.Acc) uint64 { return l.pool.Load(l.root+rOffEpoch, nd) }

// allocNode allocates and zero-initializes a node outside any
// transaction (fresh objects are unreachable until linked).
func (l *List) allocNode(ctx *exec.Ctx, key, value uint64, height int) (uint64, error) {
	off, err := l.h.Alloc(ctx, nodeWords(l.maxHeight))
	if err != nil {
		return 0, err
	}
	l.pool.Store(off+nOffKey, key, ctx.Mem)
	l.pool.Store(off+nOffValue, value, ctx.Mem)
	l.pool.Store(off+nOffHeight, uint64(height), ctx.Mem)
	return off, nil
}

// storeFat writes a fat pointer outside a transaction (initialization
// only).
func (l *List) storeFat(ctx *exec.Ctx, addr uint64, nodeOff uint64) {
	l.pool.Store(addr, 1, ctx.Mem) // pool word: single-pool baseline, ID 1
	l.pool.Store(addr+1, nodeOff, ctx.Mem)
}

// loadNext dereferences the fat pointer for node's given level: two
// loads, the cache cost under study in Figure 5.3.
func (l *List) loadNext(ctx *exec.Ctx, node uint64, level int) uint64 {
	p := l.h.ReadFat(ctx, node+nOffNext+2*uint64(level))
	return p.Off
}

// lock spins until the node's lock is held, stealing locks stamped with
// a dead epoch.
func (l *List) lock(ctx *exec.Ctx, node uint64) {
	want := l.curEpoch(ctx.Mem)<<1 | 1
	for {
		if l.pool.CAS(node+nOffLock, 0, want, ctx.Mem) {
			return
		}
		w := l.pool.Load(node+nOffLock, ctx.Mem)
		if w != 0 && w != want && w>>1 != l.curEpoch(ctx.Mem) {
			if l.pool.CAS(node+nOffLock, w, want, ctx.Mem) {
				return
			}
		}
		runtime.Gosched()
	}
}

func (l *List) unlock(ctx *exec.Ctx, node uint64) {
	l.pool.Store(node+nOffLock, 0, ctx.Mem)
}

// find populates preds/succs and returns the level at which key was
// found, or -1.
func (l *List) find(ctx *exec.Ctx, key uint64, preds, succs []uint64) int {
	found := -1
	pred := l.head
	for level := l.maxHeight - 1; level >= 0; level-- {
		curr := l.loadNext(ctx, pred, level)
		for l.pool.Load(curr+nOffKey, ctx.Mem) < key {
			pred = curr
			curr = l.loadNext(ctx, curr, level)
		}
		if found < 0 && l.pool.Load(curr+nOffKey, ctx.Mem) == key {
			found = level
		}
		preds[level] = pred
		succs[level] = curr
	}
	return found
}

// Get returns the value for key.
func (l *List) Get(ctx *exec.Ctx, key uint64) (uint64, bool) {
	if key == keyNegInf || key == keyPosInf {
		return 0, false
	}
	preds := make([]uint64, l.maxHeight)
	succs := make([]uint64, l.maxHeight)
	lf := l.find(ctx, key, preds, succs)
	if lf < 0 {
		return 0, false
	}
	node := succs[lf]
	if l.pool.Load(node+nOffLinked, ctx.Mem) == 0 || l.pool.Load(node+nOffMarked, ctx.Mem) == 1 {
		return 0, false
	}
	return l.pool.Load(node+nOffValue, ctx.Mem), true
}

// Insert adds or updates key, returning the previous value and whether
// the key was present (Herlihy's lazy insert + an update path, all
// mutations transactional).
func (l *List) Insert(ctx *exec.Ctx, key, value uint64) (uint64, bool, error) {
	if key == keyNegInf || key == keyPosInf {
		return 0, false, ErrKeyRange
	}
	preds := make([]uint64, l.maxHeight)
	succs := make([]uint64, l.maxHeight)
	for {
		lf := l.find(ctx, key, preds, succs)
		if lf >= 0 {
			node := succs[lf]
			if l.pool.Load(node+nOffMarked, ctx.Mem) == 1 {
				continue // being removed; retry
			}
			// Wait for the inserter to finish linking.
			for l.pool.Load(node+nOffLinked, ctx.Mem) == 0 {
				runtime.Gosched()
			}
			l.lock(ctx, node)
			if l.pool.Load(node+nOffMarked, ctx.Mem) == 1 {
				l.unlock(ctx, node)
				continue
			}
			old := l.pool.Load(node+nOffValue, ctx.Mem)
			tx, err := l.h.Begin(ctx)
			if err != nil {
				l.unlock(ctx, node)
				return 0, false, err
			}
			if err := tx.Write(node+nOffValue, value); err != nil {
				tx.Abort()
				l.unlock(ctx, node)
				return 0, false, err
			}
			tx.Commit()
			l.unlock(ctx, node)
			return old, true, nil
		}

		height := ctx.GeometricHeight(l.maxHeight)
		if ok, err := l.insertNew(ctx, key, value, height, preds, succs); err != nil {
			return 0, false, err
		} else if ok {
			return 0, false, nil
		}
	}
}

// insertNew locks the predecessors, validates, and links a new node
// inside one transaction.
func (l *List) insertNew(ctx *exec.Ctx, key, value uint64, height int, preds, succs []uint64) (bool, error) {
	locked := make([]uint64, 0, height)
	unlockAll := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			l.unlock(ctx, locked[i])
		}
	}
	var prevPred uint64
	valid := true
	for level := 0; level < height; level++ {
		pred, succ := preds[level], succs[level]
		if pred != prevPred {
			l.lock(ctx, pred)
			locked = append(locked, pred)
			prevPred = pred
		}
		if l.pool.Load(pred+nOffMarked, ctx.Mem) == 1 ||
			l.pool.Load(succ+nOffMarked, ctx.Mem) == 1 ||
			l.loadNext(ctx, pred, level) != succ {
			valid = false
			break
		}
	}
	if !valid {
		unlockAll()
		return false, nil
	}

	node, err := l.allocNode(ctx, key, value, height)
	if err != nil {
		unlockAll()
		return false, err
	}
	for level := 0; level < height; level++ {
		l.storeFat(ctx, node+nOffNext+2*uint64(level), succs[level])
	}
	l.pool.Persist(node, nodeWords(l.maxHeight), ctx.Mem)

	tx, err := l.h.Begin(ctx)
	if err != nil {
		unlockAll()
		return false, err
	}
	for level := 0; level < height; level++ {
		if err := tx.WriteFat(preds[level]+nOffNext+2*uint64(level), pmdktx.FatPtr{PoolID: 1, Off: node}); err != nil {
			tx.Abort()
			unlockAll()
			return false, err
		}
	}
	if err := tx.Write(node+nOffLinked, 1); err != nil {
		tx.Abort()
		unlockAll()
		return false, err
	}
	tx.Commit()
	unlockAll()
	return true, nil
}

// Remove performs Herlihy's lazy removal: mark (the linearization point,
// transactional), then unlink under predecessor locks.
func (l *List) Remove(ctx *exec.Ctx, key uint64) (uint64, bool, error) {
	if key == keyNegInf || key == keyPosInf {
		return 0, false, ErrKeyRange
	}
	preds := make([]uint64, l.maxHeight)
	succs := make([]uint64, l.maxHeight)
	for {
		lf := l.find(ctx, key, preds, succs)
		if lf < 0 {
			return 0, false, nil
		}
		victim := succs[lf]
		height := int(l.pool.Load(victim+nOffHeight, ctx.Mem))
		if lf != height-1 || l.pool.Load(victim+nOffLinked, ctx.Mem) == 0 {
			return 0, false, nil // not fully linked at its top yet
		}
		if l.pool.Load(victim+nOffMarked, ctx.Mem) == 1 {
			return 0, false, nil
		}
		l.lock(ctx, victim)
		if l.pool.Load(victim+nOffMarked, ctx.Mem) == 1 {
			l.unlock(ctx, victim)
			return 0, false, nil
		}
		old := l.pool.Load(victim+nOffValue, ctx.Mem)
		tx, err := l.h.Begin(ctx)
		if err != nil {
			l.unlock(ctx, victim)
			return 0, false, err
		}
		if err := tx.Write(victim+nOffMarked, 1); err != nil {
			tx.Abort()
			l.unlock(ctx, victim)
			return 0, false, err
		}
		tx.Commit() // linearization point of the removal

		// Unlink under predecessor locks; retry validation until it
		// succeeds (the victim stays marked, so no one else touches it).
		for {
			lf2 := l.find(ctx, key, preds, succs)
			if lf2 < 0 || succs[lf2] != victim {
				break // already unlinked by a competing retry of ours
			}
			locked := make([]uint64, 0, height)
			var prevPred uint64
			valid := true
			for level := 0; level < height; level++ {
				pred := preds[level]
				if pred != prevPred {
					l.lock(ctx, pred)
					locked = append(locked, pred)
					prevPred = pred
				}
				if l.pool.Load(pred+nOffMarked, ctx.Mem) == 1 || l.loadNext(ctx, pred, level) != victim {
					valid = false
					break
				}
			}
			if valid {
				tx, err := l.h.Begin(ctx)
				if err == nil {
					for level := height - 1; level >= 0 && err == nil; level-- {
						next := l.h.ReadFat(ctx, victim+nOffNext+2*uint64(level))
						err = tx.WriteFat(preds[level]+nOffNext+2*uint64(level), next)
					}
					if err == nil {
						tx.Commit()
					} else {
						tx.Abort()
					}
				}
				for i := len(locked) - 1; i >= 0; i-- {
					l.unlock(ctx, locked[i])
				}
				break
			}
			for i := len(locked) - 1; i >= 0; i-- {
				l.unlock(ctx, locked[i])
			}
			runtime.Gosched()
		}
		l.unlock(ctx, victim)
		return old, true, nil
	}
}

// Scan visits up to n unmarked pairs with keys >= start in ascending
// order, returning how many it saw. Like Herlihy's lazy-list reads it is
// lock-free: marked nodes are skipped in place.
func (l *List) Scan(ctx *exec.Ctx, start uint64, n int, fn func(key, value uint64) bool) int {
	preds := make([]uint64, l.maxHeight)
	succs := make([]uint64, l.maxHeight)
	l.find(ctx, start, preds, succs)
	curr := succs[0]
	seen := 0
	for seen < n {
		k := l.pool.Load(curr+nOffKey, ctx.Mem)
		if k == keyPosInf {
			break
		}
		if l.pool.Load(curr+nOffMarked, ctx.Mem) == 0 &&
			l.pool.Load(curr+nOffLinked, ctx.Mem) == 1 {
			seen++
			if fn != nil && !fn(k, l.pool.Load(curr+nOffValue, ctx.Mem)) {
				break
			}
		}
		curr = l.loadNext(ctx, curr, 0)
	}
	return seen
}

// Count walks the bottom level (quiesced) counting unmarked nodes.
func (l *List) Count(ctx *exec.Ctx) int {
	n := 0
	curr := l.loadNext(ctx, l.head, 0)
	for l.pool.Load(curr+nOffKey, ctx.Mem) != keyPosInf {
		if l.pool.Load(curr+nOffMarked, ctx.Mem) == 0 {
			n++
		}
		curr = l.loadNext(ctx, curr, 0)
	}
	return n
}

// MaxHeight returns the list's level count.
func (l *List) MaxHeight() int { return l.maxHeight }
