// Package snapshot holds the lease table the wire server keeps for
// snapshots opened over the network, so a crashed client cannot pin
// reclamation forever. The frozen-view mechanics themselves (version
// log, era pinning) live with the list in internal/skiplist; this
// package is deliberately structure-agnostic.
package snapshot

import (
	"sync"
	"time"
)

// Releaser is what a lease holds: anything whose pinned resources must
// be let go when the lease ends — in practice the store's Snap handle.
type Releaser interface {
	Release()
}

// Leases is the server-side snapshot lease table. A remote client that
// opens a snapshot over the wire gets a lease ID; every touch (page
// request) renews the TTL. A client that crashes or walks away stops
// touching, the lease expires, and the snapshot is released — without
// this, a dead client would pin the reclamation era (and the version
// log) forever.
type Leases struct {
	mu   sync.Mutex
	ttl  time.Duration
	next uint64
	m    map[uint64]*lease
}

type lease struct {
	r        Releaser
	deadline time.Time
}

// NewLeases creates a table whose leases expire ttl after their last
// touch (minimum 1s, default 30s when ttl <= 0).
func NewLeases(ttl time.Duration) *Leases {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	if ttl < time.Second {
		ttl = time.Second
	}
	return &Leases{ttl: ttl, m: make(map[uint64]*lease)}
}

// TTL returns the configured lease lifetime.
func (l *Leases) TTL() time.Duration { return l.ttl }

// Add registers a new lease over r and returns its nonzero ID.
func (l *Leases) Add(r Releaser) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	id := l.next
	l.m[id] = &lease{r: r, deadline: time.Now().Add(l.ttl)}
	return id
}

// Get looks a lease up and renews its TTL. ok is false for unknown or
// already-expired IDs.
func (l *Leases) Get(id uint64) (Releaser, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.m[id]
	if !ok {
		return nil, false
	}
	e.deadline = time.Now().Add(l.ttl)
	return e.r, true
}

// Release ends one lease and releases its snapshot. Reports whether the
// ID was live.
func (l *Leases) Release(id uint64) bool {
	l.mu.Lock()
	e, ok := l.m[id]
	delete(l.m, id)
	l.mu.Unlock()
	if ok {
		e.r.Release()
	}
	return ok
}

// Expire releases every lease whose TTL ran out, returning how many.
// Call it periodically (the server ticks it from its lease janitor).
func (l *Leases) Expire(now time.Time) int {
	l.mu.Lock()
	var dead []*lease
	for id, e := range l.m {
		if now.After(e.deadline) {
			dead = append(dead, e)
			delete(l.m, id)
		}
	}
	l.mu.Unlock()
	for _, e := range dead {
		e.r.Release()
	}
	return len(dead)
}

// ReleaseAll ends every lease (server shutdown), returning how many.
func (l *Leases) ReleaseAll() int {
	l.mu.Lock()
	var all []*lease
	for id, e := range l.m {
		all = append(all, e)
		delete(l.m, id)
	}
	l.mu.Unlock()
	for _, e := range all {
		e.r.Release()
	}
	return len(all)
}

// Len returns the number of live leases.
func (l *Leases) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}
