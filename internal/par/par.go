// Package par is the one parallel-for the recovery scans share.
package par

import (
	"sync"
	"sync/atomic"
)

// Ranges splits [0, n) into at most workers contiguous ranges — range w
// is [n*w/k, n*(w+1)/k) for the k = min(workers, n) ranges used — and
// calls fn(w, lo, hi) for each, one goroutine per range. With one range
// or none, fn(0, 0, n) runs on the calling goroutine. The first panic in
// a range is re-raised on the calling goroutine once every range has
// returned, so a crash injector firing inside a range surfaces exactly
// as it would on the serial path.
func Ranges(n, workers int, fn func(w, lo, hi int)) {
	k := min(workers, n)
	if k <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	var panicked atomic.Pointer[any]
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			fn(w, lo, hi)
		}(w, n*w/k, n*(w+1)/k)
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}
