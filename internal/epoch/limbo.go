package epoch

import (
	"sync"
	"sync/atomic"
	"time"
)

// LimboBatch is how many entries an open limbo batch gathers before
// its owner closes it.
const LimboBatch = 64

// Limbo is the grace-period free list of value chunks (slab.Arena) and
// retired nodes (skiplist): entries go on an open batch, Close tags it
// with the domain's era and advances the era, and once every worker and
// snapshot pin is past a batch's tag Expire hands its entries to the
// owner's free. Volatile like the domain: the owner collects from the
// pools what a crash dropped. Safe for concurrent use; the lock is never
// held while an entry is freed.
type Limbo[T any] struct {
	mu      sync.Mutex
	open    []T
	batches []limboBatch[T] // oldest first, so eras ascend
	n       atomic.Int64    // entries not yet handed to free
}

type limboBatch[T any] struct {
	items  []T
	era    uint64
	closed time.Time
}

// Add puts x on the open batch and reports whether the batch has
// reached LimboBatch entries, which is the owner's cue to Close it.
func (l *Limbo[T]) Add(x T) bool {
	l.mu.Lock()
	if l.open == nil {
		l.open = make([]T, 0, LimboBatch)
	}
	l.open = append(l.open, x)
	l.n.Add(1)
	full := len(l.open) >= LimboBatch
	l.mu.Unlock()
	return full
}

// Close tags the open batch, if any, with d's era and advances the era,
// so every pin taken from now on is past the tag.
func (l *Limbo[T]) Close(d *Domain) {
	l.mu.Lock()
	if len(l.open) > 0 {
		l.batches = append(l.batches, limboBatch[T]{items: l.open, era: d.Era(), closed: time.Now()})
		l.open = nil
		d.Advance()
	}
	l.mu.Unlock()
}

// Expire frees, oldest first, every closed batch whose tag all of d's
// pins have passed, and reports each one's wait since Close to graced
// when it is set.
func (l *Limbo[T]) Expire(d *Domain, free func(T), graced func(time.Duration)) {
	for {
		l.mu.Lock()
		if len(l.batches) == 0 || d.MinActive() <= l.batches[0].era {
			l.mu.Unlock()
			return
		}
		b := l.batches[0]
		l.batches = l.batches[:copy(l.batches, l.batches[1:])]
		l.n.Add(-int64(len(b.items)))
		l.mu.Unlock()
		for _, x := range b.items {
			free(x)
		}
		if graced != nil {
			graced(time.Since(b.closed))
		}
	}
}

// Drain frees every entry, the open batch's included, without waiting
// for grace, and returns how many. The caller guarantees that no reader
// can still hold one.
func (l *Limbo[T]) Drain(free func(T)) int {
	l.mu.Lock()
	items := l.open
	for _, b := range l.batches {
		items = append(items, b.items...)
	}
	l.batches, l.open = nil, nil
	l.n.Add(-int64(len(items)))
	l.mu.Unlock()
	for _, x := range items {
		free(x)
	}
	return len(items)
}

// Each calls fn with every entry not yet freed, under the lock.
func (l *Limbo[T]) Each(fn func(T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.batches {
		for _, x := range b.items {
			fn(x)
		}
	}
	for _, x := range l.open {
		fn(x)
	}
}

// Len is the number of entries not yet handed to free; it takes no lock.
func (l *Limbo[T]) Len() int { return int(l.n.Load()) }

// OpenLen is the number of entries on the open batch.
func (l *Limbo[T]) OpenLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.open)
}

// SnapBlocked counts the closed batches every worker pin has passed but
// a snapshot pin holds back: the observable cost of an open snapshot.
func (l *Limbo[T]) SnapBlocked(d *Domain) int {
	minW, minP := d.MinWorkers(), d.MinPinned()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, b := range l.batches {
		if minP <= b.era && minW > b.era {
			n++
		}
	}
	return n
}
