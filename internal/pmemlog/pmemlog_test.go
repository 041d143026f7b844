package pmemlog

import (
	"sync"
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/pmem"
)

func newLog(t testing.TB, capacity, width uint64) (*Log, *pmem.Pool) {
	t.Helper()
	pool, err := pmem.NewPool(pmem.Config{Words: RegionWords(capacity, width) + 64, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Format(pool, 0, capacity, width)
	if err != nil {
		t.Fatal(err)
	}
	return l, pool
}

func TestFormatAttach(t *testing.T) {
	l, pool := newLog(t, 16, 4)
	l.Append(nil, []uint64{1, 2, 3, 4})
	l2, err := Attach(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 1 || l2.Cap() != 16 || l2.Width() != 4 {
		t.Fatalf("attach: len=%d cap=%d width=%d", l2.Len(), l2.Cap(), l2.Width())
	}
	blank, _ := pmem.NewPool(pmem.Config{Words: 1024, HomeNode: -1})
	if _, err := Attach(blank, 0); err == nil {
		t.Fatal("attached unformatted region")
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, _ := newLog(t, 8, 3)
	for i := uint64(0); i < 8; i++ {
		if err := l.Append(nil, []uint64{i, i * 10, i * 100}); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]uint64, 3)
	for i := uint64(0); i < 8; i++ {
		if err := l.Read(nil, i, out); err != nil {
			t.Fatal(err)
		}
		if out[0] != i || out[1] != i*10 || out[2] != i*100 {
			t.Fatalf("record %d = %v", i, out)
		}
	}
}

func TestAppendFullAndWidthChecks(t *testing.T) {
	l, _ := newLog(t, 2, 2)
	l.Append(nil, []uint64{1, 2})
	l.Append(nil, []uint64{3, 4})
	if err := l.Append(nil, []uint64{5, 6}); err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	if err := l.Append(nil, []uint64{1}); err != ErrBadRecord {
		t.Fatalf("expected ErrBadRecord, got %v", err)
	}
	out := make([]uint64, 1)
	if err := l.Read(nil, 0, out); err != ErrBadRecord {
		t.Fatalf("expected ErrBadRecord on read, got %v", err)
	}
}

func TestReadBeyondLen(t *testing.T) {
	l, _ := newLog(t, 4, 1)
	l.Append(nil, []uint64{7})
	if err := l.Read(nil, 1, make([]uint64, 1)); err == nil {
		t.Fatal("read beyond committed length succeeded")
	}
}

func TestWalkAndRewind(t *testing.T) {
	l, _ := newLog(t, 8, 1)
	for i := uint64(0); i < 5; i++ {
		l.Append(nil, []uint64{i})
	}
	var seen []uint64
	l.Walk(nil, func(i uint64, rec []uint64) bool {
		seen = append(seen, rec[0])
		return rec[0] < 3 // early stop
	})
	if len(seen) != 4 {
		t.Fatalf("walk visited %d records: %v", len(seen), seen)
	}
	l.Rewind()
	if l.Len() != 0 {
		t.Fatal("rewind did not clear")
	}
	if err := l.Append(nil, []uint64{9}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashTruncatesAtRecordBoundary is the crash-consistency property:
// whatever the failure timing, the reattached log contains a prefix of
// complete records — never a torn one.
func TestCrashTruncatesAtRecordBoundary(t *testing.T) {
	var (
		l    *Log
		pool *pmem.Pool
		want int
	)
	crashstep.Run(t, crashstep.Scenario{
		At: []int64{2, 5, 9, 14, 20, 33, 50, 80},
		Setup: func(t *testing.T) []*pmem.Pool {
			l, pool = newLog(t, 64, 4)
			want = 0
			return []*pmem.Pool{pool}
		},
		Op: func(t *testing.T) {
			for i := uint64(1); i <= 20; i++ {
				if err := l.Append(nil, []uint64{i, i + 1, i + 2, i + 3}); err != nil {
					return
				}
				want++
			}
		},
		Recover: func(t *testing.T) {
			var err error
			if l, err = Attach(pool, 0); err != nil {
				t.Fatal(err)
			}
		},
		Check: func(t *testing.T, _ crashstep.Point) {
			n := l.Len()
			// Committed length may lag the last successful append by at most
			// the interrupted one, but never exceed it... it may also lag
			// because the length persist landed while the body persist of the
			// NEXT record didn't — check every visible record is whole.
			if int(n) > want+1 {
				t.Fatalf("len %d > appended %d", n, want)
			}
			out := make([]uint64, 4)
			for i := uint64(0); i < n; i++ {
				if err := l.Read(nil, i, out); err != nil {
					t.Fatal(err)
				}
				base := out[0]
				if out[1] != base+1 || out[2] != base+2 || out[3] != base+3 {
					t.Fatalf("torn record %d: %v", i, out)
				}
			}
		},
	})
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := newLog(t, 4096, 2)
	var wg sync.WaitGroup
	const workers, per = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				if err := l.Append(nil, []uint64{id, i}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if l.Len() != workers*per {
		t.Fatalf("len = %d, want %d", l.Len(), workers*per)
	}
	// Every worker's records appear exactly once each, in per-worker
	// order.
	lastSeen := map[uint64]uint64{}
	counts := map[uint64]int{}
	l.Walk(nil, func(i uint64, rec []uint64) bool {
		id, seq := rec[0], rec[1]
		if c, ok := lastSeen[id]; ok && seq <= c {
			t.Errorf("worker %d out of order: %d after %d", id, seq, c)
			return false
		}
		lastSeen[id] = seq
		counts[id]++
		return true
	})
	for id, c := range counts {
		if c != per {
			t.Fatalf("worker %d has %d records", id, c)
		}
	}
}
