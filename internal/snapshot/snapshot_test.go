package snapshot

import (
	"testing"
	"time"
)

type fakeSnap struct{ released int }

func (s *fakeSnap) Release() { s.released++ }

func TestLeaseLifecycle(t *testing.T) {
	l := NewLeases(time.Second)
	s1, s2 := &fakeSnap{}, &fakeSnap{}
	id1, id2 := l.Add(s1), l.Add(s2)
	if id1 == 0 || id1 == id2 {
		t.Fatalf("ids %d %d", id1, id2)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if r, ok := l.Get(id1); !ok || r != Releaser(s1) {
		t.Fatalf("Get(%d) = %v,%v", id1, r, ok)
	}
	if !l.Release(id1) || s1.released != 1 {
		t.Fatal("release did not fire")
	}
	if l.Release(id1) {
		t.Fatal("double release reported live")
	}
	if _, ok := l.Get(id1); ok {
		t.Fatal("released lease still resolvable")
	}
	if n := l.ReleaseAll(); n != 1 || s2.released != 1 {
		t.Fatalf("ReleaseAll = %d (s2 released %d)", n, s2.released)
	}
}

func TestLeaseExpiryAndRenewal(t *testing.T) {
	l := NewLeases(time.Second)
	s := &fakeSnap{}
	id := l.Add(s)
	// Before the deadline nothing expires.
	if n := l.Expire(time.Now()); n != 0 {
		t.Fatalf("premature expiry of %d leases", n)
	}
	// A touch renews: even "now + ttl" is not past the new deadline.
	l.Get(id)
	if n := l.Expire(time.Now().Add(900 * time.Millisecond)); n != 0 {
		t.Fatalf("renewed lease expired (%d)", n)
	}
	if n := l.Expire(time.Now().Add(2 * time.Second)); n != 1 || s.released != 1 {
		t.Fatalf("Expire = %d, released %d", n, s.released)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after expiry", l.Len())
	}
}
