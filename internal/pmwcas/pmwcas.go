// Package pmwcas implements the persistent multi-word compare-and-swap of
// Wang et al., the synchronization substrate of the BzTree baseline
// (§3.1).
//
// An operation allocates a descriptor from a fixed PMEM-resident pool,
// fills it with (address, expected, desired) entries, and executes:
//
//	Phase 1  install a tagged pointer to the descriptor in every target
//	         word with CAS, helping any competing descriptor found there;
//	Phase 2  persist a final Succeeded/Failed status, then replace every
//	         installed pointer with the desired (or rolled-back) value.
//
// Installed pointers and final values carry a dirty bit; readers that
// encounter a dirty word flush it and clear the bit, guaranteeing that
// dependent reads are persisted before dependent writes (the paper's
// description of PMwCAS's flush-on-read marking).
//
// Recovery scans the whole descriptor pool, rolling forward descriptors
// that persisted Succeeded and rolling back the rest. The scan is
// deliberately proportional to the pool size: Table 5.4's result — BzTree
// recovery with 500K descriptors taking ~9x longer than UPSkipList's
// constant-time reattach — is a direct consequence.
//
// Values stored in PMwCAS-managed words must keep the top two bits clear
// (they hold the descriptor-pointer and dirty tags).
package pmwcas

import (
	"errors"
	"sort"
	"sync/atomic"

	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
)

// Tag bits on PMwCAS-managed words.
const (
	DescFlag = uint64(1) << 63 // word holds a descriptor pointer
	DirtyBit = uint64(1) << 62 // word not yet guaranteed persistent
	tagMask  = DescFlag | DirtyBit
)

// MaxEntries is the widest MwCAS supported (BzTree needs at most 3).
const MaxEntries = 4

// Descriptor statuses.
const (
	statusFree      = 0
	statusUndecided = 1
	statusSucceeded = 2
	statusFailed    = 3
)

// Descriptor word layout.
const (
	dOffStatus = 0
	dOffSeq    = 1
	dOffCount  = 2
	dOffEntry  = 4 // entries are (addr, old, new) triples
	descWords  = dOffEntry + 3*MaxEntries
)

// Region header layout.
const (
	hdrMagic   = 0
	hdrNumDesc = 1
	hdrWords   = 2 // header words before descriptor 0
	regionHdr  = pmem.LineWords
)

const magic = 0x504D574341530001

// Errors.
var (
	ErrNotFormatted = errors.New("pmwcas: region not formatted")
	ErrTooManyWords = errors.New("pmwcas: too many entries in one descriptor")
	ErrBadValue     = errors.New("pmwcas: value uses reserved tag bits")
	ErrExhausted    = errors.New("pmwcas: thread's descriptor partition exhausted")
)

// Stats counts manager-wide events; contention on the descriptor pool is
// what makes BzTree's write throughput collapse at high thread counts.
type Stats struct {
	Executes  atomic.Uint64
	Helps     atomic.Uint64 // completions performed on behalf of others
	Conflicts atomic.Uint64 // phase-1 CASes that lost to another op
	Recovered atomic.Uint64
}

// Manager drives PMwCAS over one region of one pool.
type Manager struct {
	pool    *pmem.Pool
	base    uint64 // word offset of the region header
	numDesc int
	stats   Stats
	// perThread partitions the pool among worker threads; each thread
	// cycles through its partition (round-robin reuse after completion).
	cursor []atomic.Uint32
}

// RegionWords returns the pool words needed for a pool of n descriptors.
func RegionWords(n int) uint64 {
	return regionHdr + uint64(n)*descWords
}

// Format initializes a descriptor region.
func Format(pool *pmem.Pool, base uint64, numDesc, numThreads int) (*Manager, error) {
	if err := pool.CheckRange(base, RegionWords(numDesc)); err != nil {
		return nil, err
	}
	pool.Store(base+hdrNumDesc, uint64(numDesc), nil)
	for d := 0; d < numDesc; d++ {
		off := base + regionHdr + uint64(d)*descWords
		for w := uint64(0); w < descWords; w++ {
			pool.Store(off+w, 0, nil)
		}
	}
	pool.Persist(base, RegionWords(numDesc), nil)
	pool.Store(base+hdrMagic, magic, nil)
	pool.Persist(base+hdrMagic, 1, nil)
	return newManager(pool, base, numDesc, numThreads), nil
}

// Attach opens an existing region. Call Recover before admitting
// operations if this follows a crash.
func Attach(pool *pmem.Pool, base uint64, numThreads int) (*Manager, error) {
	if pool.Load(base+hdrMagic, nil) != magic {
		return nil, ErrNotFormatted
	}
	n := int(pool.Load(base+hdrNumDesc, nil))
	return newManager(pool, base, n, numThreads), nil
}

func newManager(pool *pmem.Pool, base uint64, numDesc, numThreads int) *Manager {
	if numThreads < 1 {
		numThreads = 1
	}
	return &Manager{
		pool: pool, base: base, numDesc: numDesc,
		cursor: make([]atomic.Uint32, numThreads),
	}
}

// NumDescriptors returns the pool size.
func (m *Manager) NumDescriptors() int { return m.numDesc }

// Stats returns the event counters.
func (m *Manager) Stats() *Stats { return &m.stats }

func (m *Manager) descOff(idx int) uint64 {
	return m.base + regionHdr + uint64(idx)*descWords
}

// descPtr builds the tagged word installed in target addresses. The
// descriptor's sequence number guards against recycled descriptors: a
// stale pointer resolves to a mismatched seq and the helper simply
// re-reads the address.
func descPtr(idx int, seq uint64) uint64 {
	return DescFlag | DirtyBit | (seq&0x3FFFFF)<<32 | uint64(idx)&0xFFFFFFFF
}

func ptrIdx(w uint64) int    { return int(w & 0xFFFFFFFF) }
func ptrSeq(w uint64) uint64 { return w >> 32 & 0x3FFFFF }

// IsDescPtr reports whether a raw word is an installed descriptor
// pointer.
func IsDescPtr(w uint64) bool { return w&DescFlag != 0 }

// Desc is a volatile handle to a descriptor being prepared.
type Desc struct {
	m       *Manager
	idx     int
	seq     uint64
	entries [][3]uint64 // addr, old, new
}

// New allocates a descriptor from the calling thread's partition,
// recycling completed ones round-robin.
func (m *Manager) New(ctx *exec.Ctx) (*Desc, error) {
	t := ctx.ThreadID % len(m.cursor)
	per := m.numDesc / len(m.cursor)
	if per == 0 {
		per = 1
	}
	start := t * per % m.numDesc
	for attempt := 0; attempt < per; attempt++ {
		slot := int(m.cursor[t].Add(1)-1) % per
		idx := (start + slot) % m.numDesc
		off := m.descOff(idx)
		st := m.pool.Load(off+dOffStatus, ctx.Mem)
		if st == statusUndecided {
			continue // still in flight (should be another epoch's leftover)
		}
		seq := m.pool.Load(off+dOffSeq, ctx.Mem) + 1
		m.pool.Store(off+dOffSeq, seq, ctx.Mem)
		return &Desc{m: m, idx: idx, seq: seq}, nil
	}
	return nil, ErrExhausted
}

// Add registers one word to be changed from old to new.
func (d *Desc) Add(addr, old, new uint64) error {
	if old&tagMask != 0 || new&tagMask != 0 {
		return ErrBadValue
	}
	if len(d.entries) >= MaxEntries {
		return ErrTooManyWords
	}
	d.entries = append(d.entries, [3]uint64{addr, old, new})
	return nil
}

// Execute runs the multi-word CAS and reports whether it committed.
func (d *Desc) Execute(ctx *exec.Ctx) bool {
	m := d.m
	m.stats.Executes.Add(1)
	// Sort by address to avoid livelock between overlapping operations.
	sort.Slice(d.entries, func(a, b int) bool { return d.entries[a][0] < d.entries[b][0] })

	off := m.descOff(d.idx)
	m.pool.Store(off+dOffCount, uint64(len(d.entries)), ctx.Mem)
	for i, e := range d.entries {
		eo := off + dOffEntry + uint64(i)*3
		m.pool.Store(eo, e[0], ctx.Mem)
		m.pool.Store(eo+1, e[1], ctx.Mem)
		m.pool.Store(eo+2, e[2], ctx.Mem)
	}
	m.pool.Store(off+dOffStatus, statusUndecided, ctx.Mem)
	m.pool.Persist(off, descWords, ctx.Mem)

	m.complete(ctx, d.idx, d.seq)
	return m.pool.Load(off+dOffStatus, ctx.Mem) == statusSucceeded
}

// complete drives a descriptor (own or found installed) to completion.
func (m *Manager) complete(ctx *exec.Ctx, idx int, seq uint64) {
	off := m.descOff(idx)
	if m.pool.Load(off+dOffSeq, ctx.Mem) != seq {
		return // recycled; nothing to do
	}
	ptr := descPtr(idx, seq)
	count := int(m.pool.Load(off+dOffCount, ctx.Mem))
	if count > MaxEntries {
		return
	}

	// Phase 1: install.
	status := uint64(statusSucceeded)
	for i := 0; i < count; i++ {
		eo := off + dOffEntry + uint64(i)*3
		addr := m.pool.Load(eo, ctx.Mem)
		old := m.pool.Load(eo+1, ctx.Mem)
	install:
		for {
			if m.pool.Load(off+dOffStatus, ctx.Mem) != statusUndecided {
				// Another helper finished phase 1 (or the op already
				// resolved); skip to phase 2.
				status = m.pool.Load(off+dOffStatus, ctx.Mem)
				goto phase2
			}
			cur := m.pool.Load(addr, ctx.Mem)
			switch {
			case cur == ptr:
				break install // already installed (by us or a helper)
			case IsDescPtr(cur):
				m.stats.Helps.Add(1)
				m.complete(ctx, ptrIdx(cur), ptrSeq(cur))
				continue
			case cur&^DirtyBit == old:
				if m.pool.CAS(addr, cur, ptr, ctx.Mem) {
					break install
				}
				m.stats.Conflicts.Add(1)
			default:
				status = statusFailed
				goto installDone
			}
		}
	}
installDone:

	// Decide. The status CAS makes exactly one outcome win; persisting it
	// is the operation's durability point.
	m.pool.CAS(off+dOffStatus, statusUndecided, status, ctx.Mem)
	m.pool.Persist(off+dOffStatus, 1, ctx.Mem)
	status = m.pool.Load(off+dOffStatus, ctx.Mem)

phase2:
	if status != statusSucceeded && status != statusFailed {
		return
	}
	// Phase 2: detach the descriptor from every word.
	for i := 0; i < count; i++ {
		eo := off + dOffEntry + uint64(i)*3
		addr := m.pool.Load(eo, ctx.Mem)
		old := m.pool.Load(eo+1, ctx.Mem)
		new := m.pool.Load(eo+2, ctx.Mem)
		final := new
		if status == statusFailed {
			final = old
		}
		if m.pool.CAS(addr, ptr, final|DirtyBit, ctx.Mem) {
			m.pool.Persist(addr, 1, ctx.Mem)
			m.pool.CAS(addr, final|DirtyBit, final, ctx.Mem)
		}
	}
}

// Read returns the logical value of a PMwCAS-managed word, helping any
// in-flight operation and flushing dirty words (the flush-on-read rule).
func (m *Manager) Read(ctx *exec.Ctx, addr uint64) uint64 {
	for {
		w := m.pool.Load(addr, ctx.Mem)
		if IsDescPtr(w) {
			m.stats.Helps.Add(1)
			m.complete(ctx, ptrIdx(w), ptrSeq(w))
			continue
		}
		if w&DirtyBit != 0 {
			m.pool.Persist(addr, 1, ctx.Mem)
			m.pool.CAS(addr, w, w&^DirtyBit, ctx.Mem)
			continue
		}
		return w
	}
}

// Recover scans the whole descriptor pool, completing or rolling back
// every descriptor left in flight by a crash. It must run quiesced,
// before new operations are admitted, and its cost is O(pool size) — the
// recovery-time behaviour measured in Table 5.4. Returns the number of
// descriptors that needed work.
func (m *Manager) Recover(ctx *exec.Ctx) int {
	repaired := 0
	for idx := 0; idx < m.numDesc; idx++ {
		off := m.descOff(idx)
		st := m.pool.Load(off+dOffStatus, ctx.Mem)
		seq := m.pool.Load(off+dOffSeq, ctx.Mem)
		count := int(m.pool.Load(off+dOffCount, ctx.Mem))
		if count > MaxEntries {
			count = 0
		}
		switch st {
		case statusFree:
			continue
		case statusUndecided:
			// Never decided: roll back any installed pointers.
			m.rollback(ctx, idx, seq, count)
			repaired++
		case statusSucceeded, statusFailed:
			// Decided but possibly not fully detached: finish phase 2.
			m.complete(ctx, idx, seq)
			repaired++
		}
		m.pool.Store(off+dOffStatus, statusFree, ctx.Mem)
		m.pool.Persist(off+dOffStatus, 1, ctx.Mem)
	}
	m.stats.Recovered.Add(uint64(repaired))
	return repaired
}

func (m *Manager) rollback(ctx *exec.Ctx, idx int, seq uint64, count int) {
	off := m.descOff(idx)
	ptr := descPtr(idx, seq)
	for i := 0; i < count; i++ {
		eo := off + dOffEntry + uint64(i)*3
		addr := m.pool.Load(eo, ctx.Mem)
		old := m.pool.Load(eo+1, ctx.Mem)
		if m.pool.CAS(addr, ptr, old, ctx.Mem) {
			m.pool.Persist(addr, 1, ctx.Mem)
		}
	}
}
