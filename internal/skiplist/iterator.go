package skiplist

import (
	"cmp"
	"slices"

	"upskiplist/internal/exec"
	"upskiplist/internal/riv"
)

// Iterator is a forward cursor over the live pairs of the list in
// ascending key order — the access pattern a database index consumer
// uses for ORDER BY / merge joins, beyond the one-shot Scan callback.
//
// The iterator snapshots one node at a time under split-count
// validation (loadNode — the one routine that reads a whole node, Scan
// and the shard merge included): the pairs returned from any single
// node are a consistent snapshot of that node, while pairs across nodes
// may interleave with concurrent writers (the same guarantee the
// paper's bottom-level range scans would give). A split that lands
// after a node was snapshotted moves its upper half into a new
// sibling; the successor is loaded strictly above everything already
// yielded, so the stream stays strictly ascending — the shard merge
// above all relies on that. An Iterator is not safe for concurrent use;
// create one per goroutine.
// Under online reclamation the cursor's node may be retired and its
// block recycled between calls (the era pin covers a single Seek/Next
// call, not the iterator's lifetime, unless the caller holds an outer
// pin). The pairs buffer is a DRAM snapshot of the node's key and value
// words and stays valid regardless; only advancing off the node
// dereferences it again, so advanceNode revalidates the cursor (next
// word neither marked nor null, same immutable first key) and otherwise
// re-seeks past the last key this node could have yielded. A
// freed-and-recycled block can therefore never contribute pairs — no
// phantom keys.
//
// A value word may name a slab chunk, which a concurrent overwrite
// retires and a grace period later frees, so its bytes are decoded only
// under the pin that covered the read of the word. ValueBytes decodes
// the current pair on demand; before the pin that read the buffered
// words drops, every pair still to be yielded from the node is decoded
// (DecodeBuffered). A cursor from NewIterator does so at the end of each
// Seek and Next, whatever pins its caller holds. A cursor from
// NewScanIterator leaves that to its owner, which holds its own pin
// across many moves (Worker.Scan): it decodes only the values it reads,
// and calls DecodeBuffered before it lets its pin go mid-scan.
type Iterator struct {
	s   *SkipList
	ctx *exec.Ctx

	node   riv.Ptr // node the buffer came from
	curK0  uint64  // its immutable first key, for cursor revalidation
	resume uint64  // largest key the buffer could have yielded
	pairs  []kv    // live pairs of that node, sorted
	idx    int     // position in pairs; idx == len(pairs) means exhausted
	vbuf   []byte  // the node's decoded value bytes, appended as decoded
	// deferred: the owner's pin covers every move (NewScanIterator).
	deferred bool
}

type kv struct {
	k, v uint64
	// voff/vlen locate the decoded bytes in the iterator's vbuf; vlen is
	// undecoded until the pair's value is decoded (never, without a
	// value decoder installed: the bytes are then empty).
	voff, vlen int
}

// undecoded is the vlen of a pair whose value word is not decoded yet.
const undecoded = -1

// NewIterator returns an unpositioned iterator; call Seek before Next.
func (s *SkipList) NewIterator(ctx *exec.Ctx) *Iterator {
	return &Iterator{s: s, ctx: ctx}
}

// NewScanIterator is NewIterator for an owner that holds its own era pin
// on ctx across every move and calls DecodeBuffered before that pin
// drops: its moves decode nothing, and ValueBytes decodes only the pair
// it is asked for.
func (s *SkipList) NewScanIterator(ctx *exec.Ctx) *Iterator {
	return &Iterator{s: s, ctx: ctx, deferred: true}
}

// Seek positions the cursor at the first live key >= key and reports
// whether such a key exists.
func (it *Iterator) Seek(key uint64) bool {
	if key < KeyMin {
		key = KeyMin
	}
	it.s.pin(it.ctx)
	defer it.unpin()
	it.resume = key - 1 // a fresh Seek owes nothing below key
	return it.reseek()
}

// Next advances to the following live pair, reporting false at the end.
// Seek positions the cursor ON the first matching pair: read it with
// Key/Value, then call Next to move forward.
func (it *Iterator) Next() bool {
	if it.node.IsNull() {
		return false
	}
	it.s.pin(it.ctx)
	defer it.unpin()
	it.idx++
	for it.idx >= len(it.pairs) {
		if !it.advanceNode() {
			return false
		}
	}
	return true
}

// Valid reports whether the cursor is on a pair.
func (it *Iterator) Valid() bool {
	return !it.node.IsNull() && it.idx < len(it.pairs)
}

// Key returns the current key; only meaningful when Valid.
func (it *Iterator) Key() uint64 { return it.pairs[it.idx].k }

// Value returns the current raw value word; only meaningful when Valid.
func (it *Iterator) Value() uint64 { return it.pairs[it.idx].v }

// ValueBytes returns the current value's decoded bytes; only meaningful
// when Valid and a decoder is installed (SetValueDecoder). A pair not
// decoded yet is decoded now, which is safe only while the pin that
// covered the read of its value word is still held: only a
// NewScanIterator cursor leaves pairs undecoded past its move, and
// ValueBytes of an undecoded pair with no pin held is a program bug and
// panics.
// Decoded bytes stay correct after the backing chunk is retired; the
// slice aliases the iterator's buffer and is valid until the cursor
// leaves the current node.
func (it *Iterator) ValueBytes() []byte {
	p := &it.pairs[it.idx]
	if p.vlen == undecoded {
		it.decode(p)
	}
	return it.vbuf[p.voff : p.voff+p.vlen : p.voff+p.vlen]
}

// DecodeBuffered decodes every pair the cursor has still to yield from
// its current node. A caller that holds a pin across several moves calls
// it before that pin drops: the words were read under the pin, and the
// chunks they name may be freed once it is gone.
func (it *Iterator) DecodeBuffered() {
	if !it.Valid() {
		return
	}
	for i := it.idx; i < len(it.pairs); i++ {
		if it.pairs[i].vlen == undecoded {
			it.decode(&it.pairs[i])
		}
	}
}

// decode appends p's value bytes to the node's vbuf. Appending leaves
// the bytes of the node's earlier pairs where they are, so slices handed
// out for them stay valid.
func (it *Iterator) decode(p *kv) {
	if it.ctx.Pins == 0 {
		panic("skiplist: Iterator.ValueBytes of an undecoded pair with no era pin held")
	}
	p.voff = len(it.vbuf)
	it.vbuf = it.s.decode(p.v, it.vbuf, it.ctx.Mem)
	p.vlen = len(it.vbuf) - p.voff
}

// unpin drops a Seek's or Next's pin, decoding the pairs still buffered
// first: the next Next may land on one under a later pin, which does not
// cover the read of its word. A deferred cursor skips that unless the
// pin is the outermost one — its owner holds the pin it moves under.
func (it *Iterator) unpin() {
	if !it.deferred || it.ctx.Pins == 1 {
		it.DecodeBuffered()
	}
	it.s.unpin(it.ctx)
}

// loadNode snapshots a node's live pairs with keys >= lo.
func (it *Iterator) loadNode(p riv.Ptr, lo uint64) {
	s := it.s
	it.node = p
	it.idx = 0
	it.pairs = it.pairs[:0]
	it.vbuf = it.vbuf[:0]
	if p.IsNull() || p == s.tail {
		it.node = riv.Null
		return
	}
	n := s.node(p)
	// One read of the header line gives the first key, the successor to
	// prefetch, and the split count and lock the snapshot validates
	// against (node.go: the count is read before the words it guards).
	h := n.header(it.ctx.Mem)
	it.curK0 = h.key0()
	if it.curK0 > it.resume {
		it.resume = it.curK0
	}
	if s.foresight {
		// Start the successor's header toward the cache while this node's
		// snapshot is taken and consumed — the streaming analogue of the
		// descent prefetch.
		if nxt := riv.FromWord(h[offNext] &^ nextMark); !nxt.IsNull() && nxt != s.tail {
			s.node(nxt).prefetchHeader(it.ctx.Mem)
		}
	}
	vlen := 0
	if s.decode != nil {
		vlen = undecoded
	}
	buf := it.ctx.GetBlock(2 * s.keysPerNode)
	kb, vb := buf[:s.keysPerNode], buf[s.keysPerNode:]
	for {
		if h.writeLocked() {
			h = n.header(it.ctx.Mem)
			continue // split in progress: retry the snapshot
		}
		sc := h.splitCount()
		it.pairs = it.pairs[:0]
		n.keyBlock(s, kb, it.ctx.Mem)
		n.valueBlock(s, vb, it.ctx.Mem)
		for i, k := range kb {
			if k == keyEmpty || k < lo || vb[i] == Tombstone {
				continue
			}
			it.pairs = append(it.pairs, kv{k: k, v: vb[i], vlen: vlen})
		}
		// A failed check leaves h as the next attempt's opening read.
		if h = n.header(it.ctx.Mem); !h.writeLocked() && h.splitCount() == sc {
			break
		}
	}
	it.ctx.PutBlock(buf)
	slices.SortFunc(it.pairs, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
}

// advanceNode moves the buffer to the next node's pairs. The caller
// holds the era pin.
func (it *Iterator) advanceNode() bool {
	s := it.s
	if it.node.IsNull() {
		return false
	}
	if len(it.pairs) > 0 {
		if k := it.pairs[len(it.pairs)-1].k; k > it.resume {
			it.resume = k
		}
	}
	n := s.node(it.node)
	// The next word is read before the first key: clean and non-null, and
	// the first key unchanged, it came from a node not yet unlinked, whose
	// successor is live under this call's pin. A mark (retired), null
	// (freed) or other first key (recycled) sends the cursor to re-seek
	// past everything the node could have yielded; a block recycled with
	// the SAME first key covers the same range and stays a valid cursor.
	w := n.nextWord(0, it.ctx.Mem)
	if w&nextMark != 0 || w == 0 || n.key0(s, it.ctx.Mem) != it.curK0 {
		return it.reseek()
	}
	next := riv.FromWord(w)
	if next == s.tail {
		it.node = riv.Null
		return false
	}
	// Load the successor strictly above everything already yielded: a
	// split that landed after this node was snapshotted moved its upper
	// half into the successor, and re-emitting those pairs would break
	// the ascending-order contract (the shard merge depends on it).
	if it.resume >= KeyMax {
		it.node = riv.Null
		return false
	}
	it.loadNode(next, it.resume+1)
	return len(it.pairs) > 0 || it.advanceNode()
}

// reseek repositions the cursor at the first node holding keys strictly
// above everything already yielded, via a fresh traversal. The caller
// holds the era pin.
func (it *Iterator) reseek() bool {
	s := it.s
	if it.resume >= KeyMax {
		it.node = riv.Null
		return false
	}
	lo := it.resume + 1
	t := it.ctx.GetTowers(s.maxHeight)
	defer it.ctx.PutTowers(t)
	preds, succs := t.Preds, t.Succs
	s.traverse(it.ctx, lo, preds, succs)
	start := preds[0]
	if start == s.head {
		start = succs[0]
	}
	it.loadNode(start, lo)
	return len(it.pairs) > 0 || it.advanceNode()
}
