package pmem

import (
	"sync/atomic"
	"unsafe"
)

// Prefetch hints that the word at off will be loaded soon — the
// simulation's analogue of issuing PREFETCHT0 on the line during
// traversal, as "Skiplists with Foresight" does for the next candidate
// node while the current node's keys are still being compared.
//
// Two things happen. First, a real hardware prefetch is issued on the
// backing array, so the next simulated Load of the line finds it in the
// host CPU's cache. Second, the cost model is told the line is now
// resident: the accessor's line cache adopts the tag, and instead of the
// full LoadPenalty the worker pays only PrefetchPenalty — the issue cost
// of a prefetch whose completion overlaps the compare work the caller is
// still doing. A line already resident costs nothing (the hint is
// discarded by hardware too).
//
// Prefetch never faults: an out-of-range offset (a stale traversal hint
// pointing past a smaller pool) is silently ignored, exactly like the
// hardware instruction. It performs no stats step() and cannot trip
// crash injection — a prefetch is invisible to recovery.
func (p *Pool) Prefetch(off uint64, acc *Acc) {
	if off >= uint64(len(p.words)) {
		return
	}
	prefetchT0(unsafe.Pointer(&p.words[off]))
	c := p.cost
	if c == nil || acc == nil {
		return
	}
	if acc.touch(p.id, off>>lineShift) {
		return // already resident: free, like the hardware hint
	}
	p.count(cPrefetches, 1, acc)
	acc.burn(c.PrefetchPenalty)
}

// Populate makes the host map words [off, off+n) now, as MAP_POPULATE
// would a range of a DAX file, by touching one word per 4 KiB host page.
// The backing array is mapped lazily, and the first store into a page
// never written takes a host page fault (4-25 µs on the benchmark's VM):
// host time, not modelled PMEM time, charged to whichever operation gets
// there first. A caller that takes a large range to fill piecemeal pays
// it here, once. Adding zero changes no contents: like Prefetch, this is
// invisible to recovery, to the counters and to the cost model.
func (p *Pool) Populate(off, n uint64) {
	if n == 0 || p.CheckRange(off, n) != nil {
		return
	}
	for i := off; i < off+n; i += 4096 / 8 {
		atomic.AddUint64(&p.words[i], 0)
	}
	atomic.AddUint64(&p.words[off+n-1], 0)
}
