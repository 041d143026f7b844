package upskiplist

import (
	"upskiplist/internal/metrics"
	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

// OpKind selects what one batched Op does.
type OpKind uint8

const (
	// OpInsert adds or updates a key (upsert).
	OpInsert OpKind = iota
	// OpGet reads a key.
	OpGet
	// OpRemove tombstones a key.
	OpRemove
)

// Op is one operation of a group-committed batch (see Worker.ApplyBatch).
type Op struct {
	Kind  OpKind
	Key   uint64
	Value []byte // ignored for OpGet/OpRemove
}

// OpResult is the outcome of one batched Op, in submission order. For
// OpInsert, Value/Found are the previous value and whether the key
// existed; for OpGet, the read value and whether it was found; for
// OpRemove, the removed value and whether the key was present. Value
// slices alias the worker's internal buffer and are valid until the
// worker's next operation.
type OpResult struct {
	Value []byte
	Found bool
	Err   error
}

// ApplyBatch applies ops as a group-committed batch and returns their
// results in submission order. See ApplyBatchInto for semantics; this
// variant allocates the result slice.
func (w *Worker) ApplyBatch(ops []Op) []OpResult {
	return w.ApplyBatchInto(ops, make([]OpResult, len(ops)))
}

// ApplyBatchInto is ApplyBatch writing results into res (which must have
// len(ops) elements), for callers that reuse buffers across batches.
//
// Operations are grouped by owning shard and each shard's run is applied
// under one traversal context in ascending key order. Value chunks for
// the shard's out-of-line inserts are written first with their line
// flushes deferred into one group, drained by a single flush-and-fence
// BEFORE any node word publishes a chunk (preserving the
// write-then-publish crash ordering); the list's own commit persists are
// likewise deferred and drained by a single trailing flush per shard. A
// batch of B operations on one shard pays two fences rather than 2B —
// one when every value is an inline 8 bytes. An empty batch is a complete
// no-op (no routing, no flush, no fence).
//
// Ordering contract: duplicate keys within one batch are applied
// deterministically in submission order — last-writer-wins for the final
// state, every operation observing exactly the effects of earlier
// same-key operations in the batch (so results are identical to applying
// the batch sequentially); results for different keys never depend on
// each other. Same-key routing is stable because a key always maps to
// one shard and each shard applies its run under a stable sort.
//
// Durability is group-commit: no operation of the batch is guaranteed
// durable until ApplyBatchInto returns. A crash mid-batch may lose any
// subset of the batch's effects — the same exposure as a crash just
// before a lone operation's commit fence, amortized over the batch.
// Chunks published by effects that were lost are reclaimed by the
// startup sweep.
func (w *Worker) ApplyBatchInto(ops []Op, res []OpResult) []OpResult {
	if len(res) != len(ops) {
		panic("upskiplist: ApplyBatchInto result buffer length mismatch")
	}
	if len(ops) == 0 {
		return res
	}
	w.ops += uint64(len(ops))
	m := w.s.met.Load()
	var start int64
	if m != nil {
		start = metrics.Now()
	}
	ns := len(w.s.shards)
	if w.runs == nil {
		w.runs = make([][]skiplist.BatchOp, ns)
	}
	for si := range w.runs {
		w.runs[si] = w.runs[si][:0]
	}
	for i, op := range ops {
		res[i] = OpResult{}
		if op.Kind == OpInsert && len(op.Value) > MaxValueLen {
			res[i].Err = ErrValueTooLarge
			continue
		}
		si := w.s.shardOf(op.Key)
		kind := skiplist.BatchInsert
		switch op.Kind {
		case OpGet:
			kind = skiplist.BatchGet
		case OpRemove:
			kind = skiplist.BatchRemove
		}
		w.runs[si] = append(w.runs[si], skiplist.BatchOp{
			Kind: kind, Key: op.Key, Tag: i,
		})
	}
	w.vbuf = w.vbuf[:0]
	for si := range w.runs {
		if len(w.runs[si]) == 0 {
			continue
		}
		if m != nil {
			m.shardOps[si].Add(uint64(len(w.runs[si])))
		}
		w.applyShard(si, ops, res)
	}
	if m != nil {
		m.batchLat.Since(start)
		m.batchOps.Add(uint64(len(ops)))
	}
	return res
}

// applyShard runs one shard's slice of the batch: encode the values
// (out-of-line chunks under a deferred flush, one fence), apply the list
// batch, then decode results and retire superseded chunks — all under
// one era pin so no chunk this run observes can be freed before its
// bytes are copied out.
func (w *Worker) applyShard(si int, ops []Op, res []OpResult) {
	e, ctx := w.s.shards[si], w.ctxs[si]
	run := w.runs[si]
	e.list.Pin(ctx)
	defer e.list.Unpin(ctx)

	// Encode every insert's value. Chunk persists of the out-of-line ones
	// are deferred into fb and drained by one grouped fence before
	// ApplyBatch can publish any ref; inline words need none. An insert
	// whose chunk could not be written fails alone and leaves the run.
	var fb pmem.Batch
	k := 0
	for j := range run {
		if run[j].Kind == skiplist.BatchInsert {
			word, err := e.encodeValue(ctx, ops[run[j].Tag].Value, &fb)
			if err != nil {
				res[run[j].Tag].Err = err
				continue
			}
			run[j].Value = word
		}
		run[k] = run[j]
		k++
	}
	run = run[:k]
	fb.Flush(ctx.Mem)

	e.list.ApplyBatch(ctx, run)

	for j := range run {
		op := &run[j]
		r := &res[op.Tag]
		r.Found, r.Err = op.Found, op.Err
		if op.Err != nil {
			// The op's own chunk was written but never published.
			if op.Kind == skiplist.BatchInsert {
				e.retireWord(op.Value)
			}
			continue
		}
		if op.Found {
			off := len(w.vbuf)
			w.vbuf = e.decodeValue(op.Old, w.vbuf, ctx.Mem)
			r.Value = w.vbuf[off:len(w.vbuf):len(w.vbuf)]
		}
		// Inserts over an existing key and successful removes superseded
		// the old chunk; it retires now that the node word durably moved
		// on (ApplyBatch's trailing flush covered the publish).
		if op.Kind != skiplist.BatchGet && op.Found {
			e.retireWord(op.Old)
		}
	}
}
