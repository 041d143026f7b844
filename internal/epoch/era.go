package epoch

import "sync/atomic"

// Domain is the volatile grace-period (epoch-based reclamation) domain
// of node and value-chunk retirement. It is entirely DRAM state — nothing
// here is persisted and nothing survives a restart, which is exactly
// right: a restart IS a grace period (no pre-crash reader can still hold
// a pointer), so rebuilding the domain empty after Open is sound.
//
// The protocol is classic EBR. The domain keeps a global era counter and
// one padded slot per worker thread. A worker entering an operation
// stamps the current era into its slot; leaving, it clears the slot. A
// retirer that unlinked a node tags it with the era current at tag
// time, advances the era, and frees the node only once every occupied
// slot holds an era strictly greater than the tag — at that point every
// worker that could have observed the node mid-traversal has exited.
//
// Do not confuse Domain with Clock: Clock is the paper's persistent
// failure-free epoch (crash detection), Domain is a volatile
// memory-reclamation era. They advance independently.
type Domain struct {
	era   atomic.Uint64
	slots []eraSlot

	// pins are long-lived era pins held by snapshots rather than by
	// worker operations. A worker slot is pinned for the duration of one
	// op; a pin slot stays pinned for the lifetime of a snapshot handle,
	// turning every limbo batch tagged at or after the pinned era into a
	// grace barrier no free may cross. Fixed-size so
	// PinCurrent stays allocation-free; NumPins bounds concurrently open
	// snapshots per domain.
	pins [NumPins]eraSlot
}

// NumPins is the number of snapshot pin slots per domain — the maximum
// number of concurrently open snapshots a single shard supports.
const NumPins = 64

// eraSlot is one worker's pinned era, padded to its own cache line so
// per-op stamping never false-shares between workers.
type eraSlot struct {
	v atomic.Uint64
	_ [7]uint64
}

// NewDomain creates a domain with nslots worker slots. Slot indices are
// taken modulo nslots, so callers should size it with the store's thread
// budget and keep worker thread IDs below it (sharing a slot between two
// live workers would let one worker's Exit unpin the other).
func NewDomain(nslots int) *Domain {
	if nslots < 1 {
		nslots = 1
	}
	d := &Domain{slots: make([]eraSlot, nslots)}
	d.era.Store(1) // era 0 is reserved as "not pinned"
	return d
}

// Era returns the current era.
func (d *Domain) Era() uint64 { return d.era.Load() }

// Advance bumps the era and returns the new value.
func (d *Domain) Advance() uint64 { return d.era.Add(1) }

// Enter pins the current era into the worker's slot. The store-then-
// recheck loop closes the classic EBR race: without it, a worker could
// read era e, stall, and publish its pin only after a retirer has
// already scanned the slots for era e — freeing a node the worker is
// about to dereference. When Enter returns having stored e and re-read
// e, the pin was globally visible before any Advance past e, so every
// later MinActive scan for a tag >= e observes it.
func (d *Domain) Enter(slot int) {
	s := &d.slots[slot%len(d.slots)].v
	for {
		e := d.era.Load()
		s.Store(e)
		if d.era.Load() == e {
			return
		}
	}
}

// Exit clears the worker's pin.
func (d *Domain) Exit(slot int) {
	d.slots[slot%len(d.slots)].v.Store(0)
}

// PinCurrent claims a free snapshot pin slot and pins the current era
// into it, returning the slot id and the pinned era. ok is false when
// every pin slot is taken (too many open snapshots). The claim is a
// CAS(0 -> era) followed by the same store-then-recheck loop Enter
// uses: once PinCurrent returns era e, the pin was globally visible
// before any Advance past e, so every later MinActive scan observes it
// and no batch tagged >= e can be freed until Unpin.
func (d *Domain) PinCurrent() (id int, era uint64, ok bool) {
	for i := range d.pins {
		s := &d.pins[i].v
		e := d.era.Load()
		if !s.CompareAndSwap(0, e) {
			continue // slot taken
		}
		// Slot is ours; close the stall race exactly like Enter.
		for d.era.Load() != e {
			e = d.era.Load()
			s.Store(e)
		}
		return i, e, true
	}
	return 0, 0, false
}

// Unpin releases a snapshot pin claimed by PinCurrent.
func (d *Domain) Unpin(id int) {
	d.pins[id].v.Store(0)
}

// MinActive returns the smallest pinned era across worker slots AND
// snapshot pins, or ^uint64(0) when nothing is pinned. A limbo batch
// tagged with era t may be freed once MinActive() > t.
func (d *Domain) MinActive() uint64 {
	min := d.MinWorkers()
	if p := d.MinPinned(); p < min {
		min = p
	}
	return min
}

// MinWorkers returns the smallest era pinned by a worker slot, or
// ^uint64(0) when no worker is pinned.
func (d *Domain) MinWorkers() uint64 {
	min := ^uint64(0)
	for i := range d.slots {
		if e := d.slots[i].v.Load(); e != 0 && e < min {
			min = e
		}
	}
	return min
}

// MinPinned returns the smallest era held by a snapshot pin, or
// ^uint64(0) when no snapshot is pinned. The limbo uses the split
// between MinWorkers and MinPinned to count batches whose free is
// blocked specifically by an open snapshot.
func (d *Domain) MinPinned() uint64 {
	min := ^uint64(0)
	for i := range d.pins {
		if e := d.pins[i].v.Load(); e != 0 && e < min {
			min = e
		}
	}
	return min
}
