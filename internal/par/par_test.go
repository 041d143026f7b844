package par

import (
	"sync/atomic"
	"testing"
)

// TestRangesCoverAndPartition: every index is visited exactly once, by
// contiguous ascending ranges numbered in order, for worker counts below,
// at and above n — and the serial cases stay on the calling goroutine.
func TestRangesCoverAndPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, workers := range []int{0, 1, 3, 64, 100} {
			seen := make([]atomic.Int32, n)
			bounds := make([][2]int, max(1, min(workers, n)))
			Ranges(n, workers, func(w, lo, hi int) {
				bounds[w] = [2]int{lo, hi}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
			next := 0
			for w, b := range bounds {
				if b[0] != next || b[1] < b[0] {
					t.Fatalf("n=%d workers=%d: range %d is %v, want it to start at %d", n, workers, w, b, next)
				}
				next = b[1]
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: ranges end at %d", n, workers, next)
			}
		}
	}
}

// TestRangesReraisesPanic: a panic inside one range reaches the caller
// with its value, after the other ranges have finished.
func TestRangesReraisesPanic(t *testing.T) {
	var done atomic.Int32
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if done.Load() != 3 {
			t.Fatalf("%d of 3 healthy ranges finished before the re-raise", done.Load())
		}
	}()
	Ranges(4, 4, func(w, lo, hi int) {
		if w == 2 {
			panic("boom")
		}
		done.Add(1)
	})
	t.Fatal("Ranges returned after a range panicked")
}
