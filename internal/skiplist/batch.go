package skiplist

import (
	"cmp"
	"slices"

	"upskiplist/internal/exec"
)

// Group-commit batch application. The motivation is MOD-style fence
// amortization: a single point operation pays one flush and one fence to
// commit (persist the value, or the claimed key slot plus the value). A
// batch of B operations applied under ApplyBatch defers those commit
// persists into the context's Group and drains them with one PersistLines
// call — at most one flush per distinct dirty line and exactly one
// trailing fence for the whole run, instead of B of each.
//
// Durability is group-commit semantics: no operation of the batch is
// guaranteed durable until ApplyBatch returns (the trailing fence is the
// batch's persistence point). A crash mid-batch may lose any subset of
// the batch's effects, exactly as a crash just before a single
// operation's commit fence loses that operation. Structural persists
// (fresh-node initialization, tower links, split publication) are NOT
// deferred, so the recovery invariants — lower levels durable before
// higher ones, nodes durable before publication — are untouched.

// BatchKind selects what one BatchOp does.
type BatchKind uint8

const (
	// BatchInsert adds or updates a key (the skip list's upsert).
	BatchInsert BatchKind = iota
	// BatchGet reads a key.
	BatchGet
	// BatchRemove tombstones a key.
	BatchRemove
)

// BatchOp is one operation of a group-committed batch. The first three
// fields are inputs; Old/Found/Err are filled in by ApplyBatch. Tag is an
// opaque caller token (e.g. the op's index in a larger request) that
// rides along through the key sort so results can be matched back up.
type BatchOp struct {
	Kind  BatchKind
	Key   uint64
	Value uint64
	Tag   int

	Old   uint64
	Found bool
	Err   error
}

// ApplyBatch applies ops as one group-committed run. The slice is
// stable-sorted by key in place: operations on the same key keep their
// submission order, while operations on different keys are applied in
// ascending key order — which both feeds the worker's hint cache a
// near-sequential key sequence and keeps the run inside one region of
// the list at a time. Results land in each element; the caller uses Tag
// to map them back to submission order.
//
// Ordering contract for duplicate keys: a batch may contain any number
// of operations on the same key, and their effects and results are
// exactly those of applying the batch one operation at a time in
// submission order. In particular writes are last-writer-wins — the
// key's final value is that of the last BatchInsert/BatchRemove on it
// in submission order — a BatchGet observes every earlier same-key
// write in the batch and no later one, and each BatchInsert/BatchRemove
// reports the previous value left by its same-key predecessor. The
// stable sort is what makes this deterministic: it never reorders
// same-key operations, and operations on different keys commute.
//
// An empty batch is a no-op: no traversal, no flush, no fence. Callers
// that cut request streams into runs (e.g. a server connection
// draining its pipelined requests) can call unconditionally without paying a persistence round
// for an empty cut.
//
// The context must not be shared with concurrent operations (the usual
// one-worker-per-goroutine rule); other workers may run concurrently
// against the same list.
func (s *SkipList) ApplyBatch(ctx *exec.Ctx, ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	slices.SortStableFunc(ops, func(a, b BatchOp) int { return cmp.Compare(a.Key, b.Key) })
	ctx.Deferred = true
	for i := range ops {
		op := &ops[i]
		if i+1 < len(ops) {
			// Foresight: while op i runs, get the next op's hinted node on
			// its way. The sort made successive keys near-neighbours, so
			// the hint cache usually knows op i+1's covering node already.
			s.prefetchHint(ctx, ops[i+1].Key)
		}
		switch op.Kind {
		case BatchGet:
			op.Old, op.Found = s.Get(ctx, op.Key)
			op.Err = nil
		case BatchRemove:
			op.Old, op.Found, op.Err = s.Remove(ctx, op.Key)
		default:
			op.Old, op.Found, op.Err = s.Insert(ctx, op.Key, op.Value)
		}
	}
	ctx.Deferred = false
	ctx.Group.Flush(ctx.Mem)
}

// persistValueOp commits a value write: immediately (flush+fence) for a
// single operation, or into the deferred group during ApplyBatch.
func (s *SkipList) persistValueOp(ctx *exec.Ctx, n nodeRef, i int) {
	if ctx.Deferred {
		ctx.Group.Add(n.pool, n.off+s.valOff(i), 1, ctx.Mem)
		return
	}
	n.persistValue(s, i, ctx.Mem)
}

// persistKeyOp commits a key-slot claim, with the same deferral rule.
func (s *SkipList) persistKeyOp(ctx *exec.Ctx, n nodeRef, i int) {
	if ctx.Deferred {
		ctx.Group.Add(n.pool, n.off+s.keyOff(i), 1, ctx.Mem)
		return
	}
	n.persistKey(s, i, ctx.Mem)
}
