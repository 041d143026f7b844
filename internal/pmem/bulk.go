package pmem

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
)

// Bulk accessors: the counterparts of Load and Store for a run of
// contiguous words. They keep the ruler the single-word calls measure
// with — a bulk load counts and is charged as one Load per covered
// cache line against the same line cache, a bulk store counts one Store
// per word and every word pays StorePenalty — and pay the per-call
// bookkeeping (ledger update, injection step, spin call) once per call
// or per line instead of once per word.

// loadLines counts and charges one load per cache line covering the n
// words at off: a streamed sequential read of a resident line costs one
// hit, not eight, and Loads says so, so every counter × penalty sum
// bills what the pool spun for.
func (p *Pool) loadLines(off, n uint64, acc *Acc) {
	first, last := off>>lineShift, (off+n-1)>>lineShift
	p.count(cLoads, last-first+1, acc)
	if p.cost == nil {
		return
	}
	for line := first; line <= last; line++ {
		p.chargeLoad(line<<lineShift, acc)
	}
}

// LoadBlock atomically reads the n = len(dst) contiguous words starting
// at off into dst. It is the bulk counterpart of Load for block-organized
// data (a node's key block). Word loads are individually atomic; the
// block as a whole is not a snapshot, exactly like n independent Load
// calls (callers validate with split counts or locks as usual).
func (p *Pool) LoadBlock(off uint64, dst []uint64, acc *Acc) {
	n := uint64(len(dst))
	if n == 0 {
		return
	}
	p.step()
	p.loadLines(off, n, acc)
	for i := uint64(0); i < n; i++ {
		dst[i] = atomic.LoadUint64(&p.words[off+i])
	}
}

// LoadBytes appends the n bytes packed little-endian into the words
// starting at off to dst, charged like LoadBlock. The words are read
// with plain loads: the caller must know no writer can touch them
// meanwhile (a published value chunk is immutable until its grace period
// has passed).
func (p *Pool) LoadBytes(off uint64, n int, dst []byte, acc *Acc) []byte {
	words := uint64(n+7) / 8
	if words == 0 {
		return dst
	}
	p.step()
	p.loadLines(off, words, acc)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out, src := dst[start:], p.words[off:off+words]
	for ; len(out) >= 8; out, src = out[8:], src[1:] {
		binary.LittleEndian.PutUint64(out, src[0])
	}
	if len(out) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], src[0])
		copy(out, tail[:])
	}
	return dst
}

// StoreBytes packs src little-endian into the words starting at off (a
// final partial word is zero-padded), the bulk counterpart of Store. The
// injector is stepped once per covered cache line, so a crash can land
// between any two lines of the run, and under tracking every covered
// line is shadow-captured before it is written. The words are written
// with plain stores: the caller must own them exclusively (a chunk not
// yet published).
func (p *Pool) StoreBytes(off uint64, src []byte, acc *Acc) {
	n := uint64(len(src)+7) / 8
	if n == 0 {
		return
	}
	p.count(cStores, n, acc)
	tracking := p.tracking.Load()
	for lo, end := off, off+n; lo < end; {
		hi := min(end, (lo|(LineWords-1))+1)
		p.step()
		p.chargeStore(lo, int(hi-lo), acc)
		var sh *shadowShard
		if tracking {
			sh = p.shard(lo >> lineShift)
			sh.mu.Lock()
			p.captureLine(sh, lo>>lineShift)
		}
		dst := p.words[lo:hi]
		for i := range dst {
			if len(src) >= 8 {
				dst[i] = binary.LittleEndian.Uint64(src)
				src = src[8:]
			} else {
				var tail [8]byte
				copy(tail[:], src)
				dst[i] = binary.LittleEndian.Uint64(tail[:])
			}
		}
		if tracking {
			sh.mu.Unlock()
		}
		lo = hi
	}
}
