package epoch

import (
	"testing"
	"time"
)

// TestLimboGracePeriod: a closed batch frees only once every pin taken
// before its close is gone, snapshot pins included, oldest batch first;
// the open batch never frees before Drain.
func TestLimboGracePeriod(t *testing.T) {
	d := NewDomain(4)
	var l Limbo[int]
	var freed []int
	free := func(x int) { freed = append(freed, x) }

	d.Enter(1) // a worker pinned before the first close
	for i := 0; i < LimboBatch-1; i++ {
		if l.Add(i) {
			t.Fatalf("batch full after %d entries", i+1)
		}
	}
	if !l.Add(LimboBatch - 1) {
		t.Fatal("batch not full at LimboBatch entries")
	}
	l.Close(d)
	snap, _, ok := d.PinCurrent() // a snapshot pinned after the first close
	if !ok {
		t.Fatal("no pin slot")
	}
	l.Add(1000)
	l.Close(d)
	l.Add(2000) // stays open

	var waits []time.Duration
	graced := func(w time.Duration) { waits = append(waits, w) }
	l.Expire(d, free, graced)
	if len(freed) != 0 || l.Len() != LimboBatch+2 {
		t.Fatalf("freed %v under a worker pin; %d left", freed, l.Len())
	}
	d.Exit(1)
	l.Expire(d, free, graced)
	if len(freed) != LimboBatch || freed[0] != 0 || len(waits) != 1 {
		t.Fatalf("freed %d entries (%d waits) once the worker left, want the first batch", len(freed), len(waits))
	}
	if n := l.SnapBlocked(d); n != 1 {
		t.Fatalf("%d batches held back by the snapshot, want 1", n)
	}
	d.Unpin(snap)
	l.Expire(d, free, graced)
	if len(freed) != LimboBatch+1 || freed[LimboBatch] != 1000 {
		t.Fatalf("second batch not freed once the snapshot left: %v", freed[LimboBatch:])
	}
	if n := l.Drain(free); n != 1 || freed[len(freed)-1] != 2000 || l.Len() != 0 {
		t.Fatalf("Drain freed %d, left %d", n, l.Len())
	}
}

// TestLimboFreesOutsideItsLock: the owner's free runs with the limbo's
// lock free, so it may touch persistent memory (and the limbo itself).
func TestLimboFreesOutsideItsLock(t *testing.T) {
	d := NewDomain(1)
	var l Limbo[int]
	held := 0
	free := func(int) {
		if !l.mu.TryLock() {
			held++
			return
		}
		l.mu.Unlock()
	}
	for i := 0; i < 3; i++ {
		l.Add(i)
	}
	l.Close(d)
	l.Add(3)
	l.Expire(d, free, nil)
	l.Drain(free)
	if held != 0 {
		t.Fatalf("free ran %d times with the limbo's lock held", held)
	}
}
