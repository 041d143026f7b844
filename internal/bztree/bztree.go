// Package bztree implements the BzTree baseline (Arulraj et al., §3.1 and
// §5.1.2 of the paper): a latch-free persistent-memory range index whose
// every write goes through PMwCAS.
//
// Structure, following the Lersch et al. implementation the paper
// benchmarks against:
//
//   - Leaf nodes hold a status word (frozen bit + record count), a sorted
//     key region created at the node's birth, and an unsorted overflow
//     region appended by inserts. Lookups binary-search the sorted region
//     and then scan the overflow — the lookup advantage that lets BzTree
//     win the read-only workloads (Figure 5.2).
//
//   - Record inserts are a 3-word PMwCAS (status count bump, key slot,
//     value slot); updates are a 2-word PMwCAS (status freeze guard,
//     value) — the descriptor traffic that bottlenecks update-heavy
//     workloads at high concurrency (Figure 5.1).
//
//   - Structure modification: a full leaf is frozen (PMwCAS on its
//     status), its live records are consolidated into one or two new
//     sorted leaves, and an immutable directory (the inner level) is
//     rebuilt copy-on-write and swapped in with PMwCAS. Any thread that
//     finds a frozen leaf helps complete the split, so a splitter's death
//     (crash) cannot wedge the tree.
//
//   - Recovery is PMwCAS pool recovery: a scan of every descriptor, which
//     is why BzTree's recovery time in Table 5.4 grows with the
//     descriptor pool size.
//
// Memory for replaced nodes is not reclaimed (the real BzTree defers to
// PMwCAS's epoch GC, which the paper notes as a source of trouble at
// small descriptor pools; reclamation is out of scope here, as removals
// are for UPSkipList).
package bztree

import (
	"errors"
	"sort"

	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/pmwcas"
)

// Header layout (at the start of the tree's region).
const (
	hdrMagic = 0
	hdrRoot  = 1 // word offset of the current directory node
	hdrBump  = 2 // next free word for node allocation
	hdrCap   = 3 // leaf capacity (records)
	hdrEnd   = 4 // region end (for bump bounds)
	hdrWords = pmem.LineWords
)

const magic = 0x425A545245450001

// Leaf node layout.
const (
	lOffStatus = 0 // frozen bit | record count
	lOffSorted = 1 // length of the sorted prefix
	lOffKeys   = 2 // keys[cap], then values[cap]
)

// Directory node layout: count, then (sepKey, child) pairs sorted by
// sepKey; entry 0's sepKey is 0 (covers the whole keyspace).
const (
	dOffCount = 0
	dOffPairs = 1
)

const frozenBit = uint64(1) << 48
const countMask = frozenBit - 1

// Tombstone marks a deleted record. User values must be below 1<<48 so
// that the PMwCAS tag bits and this sentinel stay out of their way.
const Tombstone = uint64(1)<<48 - 1

// MaxValue is the largest storable user value.
const MaxValue = Tombstone - 1

// Errors.
var (
	ErrNotFormatted = errors.New("bztree: region not formatted")
	ErrOutOfSpace   = errors.New("bztree: node space exhausted")
	ErrBadValue     = errors.New("bztree: value out of range")
	ErrBadKey       = errors.New("bztree: key out of range")
)

// Config describes a tree.
type Config struct {
	LeafCapacity int
	// Descriptors is the PMwCAS pool size; the paper runs 500K (and 100K
	// to reproduce Lersch et al.'s recovery number).
	Descriptors int
	NumThreads  int
	// RegionWords is the total pool space to manage (descriptors + nodes).
	RegionWords uint64
}

// DefaultConfig returns a small test geometry.
func DefaultConfig() Config {
	return Config{LeafCapacity: 32, Descriptors: 1024, NumThreads: 16, RegionWords: 1 << 20}
}

// Tree is a handle to a BzTree in a pool.
type Tree struct {
	pool *pmem.Pool
	base uint64
	mgr  *pmwcas.Manager
	cap  int
	end  uint64
}

// Create formats a BzTree (with its PMwCAS pool) at base in the pool.
func Create(pool *pmem.Pool, base uint64, cfg Config) (*Tree, error) {
	if cfg.LeafCapacity < 2 || cfg.Descriptors < 1 {
		return nil, errors.New("bztree: bad config")
	}
	if err := pool.CheckRange(base, cfg.RegionWords); err != nil {
		return nil, err
	}
	mwBase := base + hdrWords
	mgr, err := pmwcas.Format(pool, mwBase, cfg.Descriptors, cfg.NumThreads)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		pool: pool, base: base, mgr: mgr,
		cap: cfg.LeafCapacity,
		end: base + cfg.RegionWords,
	}
	bumpStart := mwBase + pmwcas.RegionWords(cfg.Descriptors)
	pool.Store(base+hdrBump, bumpStart, nil)
	pool.Store(base+hdrCap, uint64(cfg.LeafCapacity), nil)
	pool.Store(base+hdrEnd, t.end, nil)

	ctx := exec.NewCtx(0, -1)
	defer ctx.Mem.Publish()
	leaf, err := t.allocLeaf(ctx)
	if err != nil {
		return nil, err
	}
	dir, err := t.allocDir(ctx, 1)
	if err != nil {
		return nil, err
	}
	pool.Store(dir+dOffPairs, 0, nil)      // sepKey 0
	pool.Store(dir+dOffPairs+1, leaf, nil) // child
	pool.Store(dir+dOffCount, 1, nil)
	pool.Persist(dir, 3, nil)

	pool.Store(base+hdrRoot, dir, nil)
	pool.Persist(base, hdrWords, nil)
	pool.Store(base+hdrMagic, magic, nil)
	pool.Persist(base+hdrMagic, 1, nil)
	return t, nil
}

// Attach opens an existing tree and runs PMwCAS recovery (the whole of
// BzTree recovery, per the paper). It returns the tree and the number of
// descriptors processed.
func Attach(pool *pmem.Pool, base uint64, numThreads int) (*Tree, int, error) {
	if pool.Load(base+hdrMagic, nil) != magic {
		return nil, 0, ErrNotFormatted
	}
	mgr, err := pmwcas.Attach(pool, base+hdrWords, numThreads)
	if err != nil {
		return nil, 0, err
	}
	t := &Tree{
		pool: pool, base: base, mgr: mgr,
		cap: int(pool.Load(base+hdrCap, nil)),
		end: pool.Load(base+hdrEnd, nil),
	}
	ctx := exec.NewCtx(0, -1)
	n := mgr.Recover(ctx)
	ctx.Mem.Publish()
	return t, n, nil
}

// Manager exposes the PMwCAS manager (stats, tests).
func (t *Tree) Manager() *pmwcas.Manager { return t.mgr }

func (t *Tree) leafWords() uint64 { return lOffKeys + 2*uint64(t.cap) }

// bump allocates n words of node space.
func (t *Tree) bump(ctx *exec.Ctx, n uint64) (uint64, error) {
	for {
		cur := t.pool.Load(t.base+hdrBump, ctx.Mem)
		next := cur + n
		if next > t.end {
			return 0, ErrOutOfSpace
		}
		if t.pool.CAS(t.base+hdrBump, cur, next, ctx.Mem) {
			t.pool.Persist(t.base+hdrBump, 1, ctx.Mem)
			return cur, nil
		}
	}
}

func (t *Tree) allocLeaf(ctx *exec.Ctx) (uint64, error) {
	off, err := t.bump(ctx, t.leafWords())
	if err != nil {
		return 0, err
	}
	for w := uint64(0); w < t.leafWords(); w++ {
		t.pool.Store(off+w, 0, ctx.Mem)
	}
	t.pool.Persist(off, t.leafWords(), ctx.Mem)
	return off, nil
}

func (t *Tree) allocDir(ctx *exec.Ctx, entries int) (uint64, error) {
	return t.bump(ctx, dOffPairs+2*uint64(entries))
}

// readWord loads a possibly PMwCAS-managed word, going through the
// manager only when the raw word carries tag bits.
func (t *Tree) readWord(ctx *exec.Ctx, addr uint64) uint64 {
	w := t.pool.Load(addr, ctx.Mem)
	if w&(pmwcas.DescFlag|pmwcas.DirtyBit) != 0 {
		return t.mgr.Read(ctx, addr)
	}
	return w
}

// findLeaf descends the (single-level) directory to the leaf covering
// key, returning (dir, leaf).
func (t *Tree) findLeaf(ctx *exec.Ctx, key uint64) (uint64, uint64) {
	dir := t.readWord(ctx, t.base+hdrRoot)
	n := int(t.pool.Load(dir+dOffCount, ctx.Mem))
	// Binary search: last entry with sepKey <= key.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		sep := t.pool.Load(dir+dOffPairs+2*uint64(mid), ctx.Mem)
		if sep <= key {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return dir, t.pool.Load(dir+dOffPairs+2*uint64(lo)+1, ctx.Mem)
}

func (t *Tree) leafKey(leaf uint64, i int) uint64 { return leaf + lOffKeys + uint64(i) }
func (t *Tree) leafValue(leaf uint64, i int) uint64 {
	return leaf + lOffKeys + uint64(t.cap) + uint64(i)
}

// searchLeaf finds key's slot: binary search over the sorted prefix,
// linear over the overflow.
func (t *Tree) searchLeaf(ctx *exec.Ctx, leaf uint64, key uint64, count int) int {
	sorted := int(t.pool.Load(leaf+lOffSorted, ctx.Mem))
	if sorted > count {
		sorted = count
	}
	lo, hi := 0, sorted-1
	for lo <= hi {
		mid := (lo + hi) / 2
		k := t.readWord(ctx, t.leafKey(leaf, mid))
		switch {
		case k == key:
			return mid
		case k < key:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	for i := sorted; i < count; i++ {
		if t.readWord(ctx, t.leafKey(leaf, i)) == key {
			return i
		}
	}
	return -1
}

// Get returns the value for key.
func (t *Tree) Get(ctx *exec.Ctx, key uint64) (uint64, bool) {
	for {
		_, leaf := t.findLeaf(ctx, key)
		status := t.readWord(ctx, leaf+lOffStatus)
		if status&frozenBit != 0 {
			t.completeSplit(ctx, leaf)
			continue
		}
		count := int(status & countMask)
		i := t.searchLeaf(ctx, leaf, key, count)
		if i < 0 {
			return 0, false
		}
		v := t.readWord(ctx, t.leafValue(leaf, i))
		if v == Tombstone {
			return 0, false
		}
		return v, true
	}
}

// Insert adds or updates key (upsert), returning the previous value and
// whether the key was logically present.
func (t *Tree) Insert(ctx *exec.Ctx, key, value uint64) (uint64, bool, error) {
	if value > MaxValue {
		return 0, false, ErrBadValue
	}
	if key == 0 || key > MaxValue {
		return 0, false, ErrBadKey
	}
	for {
		_, leaf := t.findLeaf(ctx, key)
		status := t.readWord(ctx, leaf+lOffStatus)
		if status&frozenBit != 0 {
			t.completeSplit(ctx, leaf)
			continue
		}
		count := int(status & countMask)
		if i := t.searchLeaf(ctx, leaf, key, count); i >= 0 {
			// Update: 2-word PMwCAS (freeze guard + value).
			old := t.readWord(ctx, t.leafValue(leaf, i))
			if old == value {
				return old, old != Tombstone, nil
			}
			d, err := t.mgr.New(ctx)
			if err != nil {
				return 0, false, err
			}
			d.Add(leaf+lOffStatus, status, status)
			d.Add(t.leafValue(leaf, i), old, value)
			if d.Execute(ctx) {
				return old, old != Tombstone, nil
			}
			continue
		}
		if count >= t.cap {
			if err := t.split(ctx, leaf, status); err != nil {
				return 0, false, err
			}
			continue
		}
		// Fresh insert: 3-word PMwCAS (count bump + key + value).
		d, err := t.mgr.New(ctx)
		if err != nil {
			return 0, false, err
		}
		d.Add(leaf+lOffStatus, status, uint64(count+1)|(status&^countMask))
		d.Add(t.leafKey(leaf, count), 0, key)
		d.Add(t.leafValue(leaf, count), 0, value)
		if d.Execute(ctx) {
			return 0, false, nil
		}
	}
}

// Remove tombstones a key.
func (t *Tree) Remove(ctx *exec.Ctx, key uint64) (uint64, bool, error) {
	for {
		_, leaf := t.findLeaf(ctx, key)
		status := t.readWord(ctx, leaf+lOffStatus)
		if status&frozenBit != 0 {
			t.completeSplit(ctx, leaf)
			continue
		}
		count := int(status & countMask)
		i := t.searchLeaf(ctx, leaf, key, count)
		if i < 0 {
			return 0, false, nil
		}
		old := t.readWord(ctx, t.leafValue(leaf, i))
		if old == Tombstone {
			return 0, false, nil
		}
		d, err := t.mgr.New(ctx)
		if err != nil {
			return 0, false, err
		}
		d.Add(leaf+lOffStatus, status, status)
		d.Add(t.leafValue(leaf, i), old, Tombstone)
		if d.Execute(ctx) {
			return old, true, nil
		}
	}
}

// split freezes a full leaf and hands off to completeSplit.
func (t *Tree) split(ctx *exec.Ctx, leaf uint64, status uint64) error {
	d, err := t.mgr.New(ctx)
	if err != nil {
		return err
	}
	d.Add(leaf+lOffStatus, status, status|frozenBit)
	d.Execute(ctx) // failure means someone else froze or changed it; fine
	return t.completeSplit(ctx, leaf)
}

// completeSplit consolidates a frozen leaf's live records into one or two
// new sorted leaves and swaps a rebuilt directory in. Any thread can run
// it (helping), and it is idempotent: once the directory no longer
// references the frozen leaf, helpers return.
func (t *Tree) completeSplit(ctx *exec.Ctx, leaf uint64) error {
	for {
		dir := t.readWord(ctx, t.base+hdrRoot)
		n := int(t.pool.Load(dir+dOffCount, ctx.Mem))
		pos := -1
		for i := 0; i < n; i++ {
			if t.pool.Load(dir+dOffPairs+2*uint64(i)+1, ctx.Mem) == leaf {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil // already replaced
		}
		status := t.readWord(ctx, leaf+lOffStatus)
		if status&frozenBit == 0 {
			return nil // unfrozen somehow (shouldn't happen); nothing to do
		}
		count := int(status & countMask)

		// Gather live records.
		type rec struct{ k, v uint64 }
		recs := make([]rec, 0, count)
		for i := 0; i < count; i++ {
			k := t.readWord(ctx, t.leafKey(leaf, i))
			v := t.readWord(ctx, t.leafValue(leaf, i))
			if v == Tombstone {
				continue
			}
			recs = append(recs, rec{k, v})
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].k < recs[b].k })

		// One consolidated leaf if the live set shrank enough, else two.
		var newLeaves []uint64
		var sepKeys []uint64
		sepBase := t.pool.Load(dir+dOffPairs+2*uint64(pos), ctx.Mem)
		build := func(rs []rec, sep uint64) error {
			nl, err := t.allocLeaf(ctx)
			if err != nil {
				return err
			}
			for i, r := range rs {
				t.pool.Store(t.leafKey(nl, i), r.k, ctx.Mem)
				t.pool.Store(t.leafValue(nl, i), r.v, ctx.Mem)
			}
			t.pool.Store(nl+lOffSorted, uint64(len(rs)), ctx.Mem)
			t.pool.Store(nl+lOffStatus, uint64(len(rs)), ctx.Mem)
			t.pool.Persist(nl, t.leafWords(), ctx.Mem)
			newLeaves = append(newLeaves, nl)
			sepKeys = append(sepKeys, sep)
			return nil
		}
		if len(recs) <= t.cap/2 {
			if err := build(recs, sepBase); err != nil {
				return err
			}
		} else {
			mid := len(recs) / 2
			if err := build(recs[:mid], sepBase); err != nil {
				return err
			}
			if err := build(recs[mid:], recs[mid].k); err != nil {
				return err
			}
		}

		// Rebuild the directory copy-on-write.
		newN := n - 1 + len(newLeaves)
		nd, err := t.allocDir(ctx, newN)
		if err != nil {
			return err
		}
		w := 0
		writePair := func(sep, child uint64) {
			t.pool.Store(nd+dOffPairs+2*uint64(w), sep, ctx.Mem)
			t.pool.Store(nd+dOffPairs+2*uint64(w)+1, child, ctx.Mem)
			w++
		}
		for i := 0; i < n; i++ {
			if i == pos {
				for j := range newLeaves {
					writePair(sepKeys[j], newLeaves[j])
				}
				continue
			}
			writePair(t.pool.Load(dir+dOffPairs+2*uint64(i), ctx.Mem),
				t.pool.Load(dir+dOffPairs+2*uint64(i)+1, ctx.Mem))
		}
		t.pool.Store(nd+dOffCount, uint64(newN), ctx.Mem)
		t.pool.Persist(nd, dOffPairs+2*uint64(newN), ctx.Mem)

		// Swap the root via PMwCAS (the structure-modification commit).
		d, err := t.mgr.New(ctx)
		if err != nil {
			return err
		}
		d.Add(t.base+hdrRoot, dir, nd)
		if d.Execute(ctx) {
			return nil
		}
		// Directory changed underneath us; retry (our freshly built nodes
		// leak, as in the GC-less baseline).
	}
}

// Scan visits up to n live records with keys >= start in ascending
// order, returning how many it saw. Leaves hold a sorted base region and
// an unsorted overflow, so each leaf's records are gathered and merged
// before visiting — the price BzTree pays for cheap appends.
func (t *Tree) Scan(ctx *exec.Ctx, start uint64, n int, fn func(key, value uint64) bool) int {
	seen := 0
	dir := t.readWord(ctx, t.base+hdrRoot)
	dn := int(t.pool.Load(dir+dOffCount, ctx.Mem))
	// First leaf covering start.
	lo, hi := 0, dn-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.pool.Load(dir+dOffPairs+2*uint64(mid), ctx.Mem) <= start {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	type rec struct{ k, v uint64 }
	for li := lo; li < dn && seen < n; li++ {
		leaf := t.pool.Load(dir+dOffPairs+2*uint64(li)+1, ctx.Mem)
		status := t.readWord(ctx, leaf+lOffStatus)
		if status&frozenBit != 0 {
			t.completeSplit(ctx, leaf)
			li-- // re-read the directory entry
			dir = t.readWord(ctx, t.base+hdrRoot)
			dn = int(t.pool.Load(dir+dOffCount, ctx.Mem))
			continue
		}
		count := int(status & countMask)
		recs := make([]rec, 0, count)
		for i := 0; i < count; i++ {
			k := t.readWord(ctx, t.leafKey(leaf, i))
			if k < start {
				continue
			}
			v := t.readWord(ctx, t.leafValue(leaf, i))
			if v == Tombstone {
				continue
			}
			recs = append(recs, rec{k, v})
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].k < recs[b].k })
		for _, r := range recs {
			seen++
			if fn != nil && !fn(r.k, r.v) {
				return seen
			}
			if seen >= n {
				break
			}
		}
	}
	return seen
}

// Count returns the number of live records (quiesced walk).
func (t *Tree) Count(ctx *exec.Ctx) int {
	dir := t.readWord(ctx, t.base+hdrRoot)
	n := int(t.pool.Load(dir+dOffCount, ctx.Mem))
	total := 0
	for i := 0; i < n; i++ {
		leaf := t.pool.Load(dir+dOffPairs+2*uint64(i)+1, ctx.Mem)
		status := t.readWord(ctx, leaf+lOffStatus)
		count := int(status & countMask)
		for j := 0; j < count; j++ {
			if t.readWord(ctx, t.leafValue(leaf, j)) != Tombstone {
				total++
			}
		}
	}
	return total
}

// Leaves returns the number of leaves in the current directory.
func (t *Tree) Leaves(ctx *exec.Ctx) int {
	dir := t.readWord(ctx, t.base+hdrRoot)
	return int(t.pool.Load(dir+dOffCount, ctx.Mem))
}
