package pmwcas

import (
	"sync"
	"testing"

	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
)

// testRig provides a pool with a pmwcas region at the front and free data
// words after it.
type testRig struct {
	pool *pmem.Pool
	m    *Manager
	data uint64 // first free data word
}

func newRig(t testing.TB, numDesc, numThreads int) *testRig {
	t.Helper()
	dataWords := uint64(4096)
	pool, err := pmem.NewPool(pmem.Config{Words: RegionWords(numDesc) + dataWords, HomeNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Format(pool, 0, numDesc, numThreads)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{pool: pool, m: m, data: RegionWords(numDesc)}
}

func ctxN(id int) *exec.Ctx { return exec.NewCtx(id, 0) }

func TestFormatAttach(t *testing.T) {
	r := newRig(t, 8, 2)
	m2, err := Attach(r.pool, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumDescriptors() != 8 {
		t.Fatalf("NumDescriptors = %d", m2.NumDescriptors())
	}
	blank, _ := pmem.NewPool(pmem.Config{Words: 4096, HomeNode: -1})
	if _, err := Attach(blank, 0, 2); err == nil {
		t.Fatal("attached unformatted region")
	}
}

func TestSingleWordSuccess(t *testing.T) {
	r := newRig(t, 8, 1)
	ctx := ctxN(0)
	a := r.data
	r.pool.Store(a, 5, nil)
	d, err := r.m.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(a, 5, 9); err != nil {
		t.Fatal(err)
	}
	if !d.Execute(ctx) {
		t.Fatal("MwCAS failed with matching expected value")
	}
	if got := r.m.Read(ctx, a); got != 9 {
		t.Fatalf("value = %d, want 9", got)
	}
}

func TestSingleWordFailure(t *testing.T) {
	r := newRig(t, 8, 1)
	ctx := ctxN(0)
	a := r.data
	r.pool.Store(a, 5, nil)
	d, _ := r.m.New(ctx)
	d.Add(a, 6, 9)
	if d.Execute(ctx) {
		t.Fatal("MwCAS succeeded with stale expected value")
	}
	if got := r.m.Read(ctx, a); got != 5 {
		t.Fatalf("value = %d, want untouched 5", got)
	}
}

func TestMultiWordAtomicity(t *testing.T) {
	r := newRig(t, 8, 1)
	ctx := ctxN(0)
	a, b, c := r.data, r.data+1, r.data+2
	r.pool.Store(a, 1, nil)
	r.pool.Store(b, 2, nil)
	r.pool.Store(c, 99, nil) // mismatch

	d, _ := r.m.New(ctx)
	d.Add(a, 1, 10)
	d.Add(b, 2, 20)
	d.Add(c, 3, 30) // expected 3, actual 99
	if d.Execute(ctx) {
		t.Fatal("MwCAS succeeded despite mismatch")
	}
	// All-or-nothing: a and b must be rolled back.
	if r.m.Read(ctx, a) != 1 || r.m.Read(ctx, b) != 2 || r.m.Read(ctx, c) != 99 {
		t.Fatalf("rollback incomplete: %d %d %d",
			r.m.Read(ctx, a), r.m.Read(ctx, b), r.m.Read(ctx, c))
	}
}

func TestRejectsTaggedValues(t *testing.T) {
	r := newRig(t, 8, 1)
	d, _ := r.m.New(ctxN(0))
	if err := d.Add(r.data, DescFlag, 1); err == nil {
		t.Fatal("accepted DescFlag in expected value")
	}
	if err := d.Add(r.data, 1, DirtyBit); err == nil {
		t.Fatal("accepted DirtyBit in new value")
	}
}

func TestTooManyEntries(t *testing.T) {
	r := newRig(t, 8, 1)
	d, _ := r.m.New(ctxN(0))
	for i := 0; i < MaxEntries; i++ {
		if err := d.Add(r.data+uint64(i), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Add(r.data+99, 0, 1); err == nil {
		t.Fatal("accepted entry beyond MaxEntries")
	}
}

func TestDescriptorRecycling(t *testing.T) {
	r := newRig(t, 4, 1)
	ctx := ctxN(0)
	a := r.data
	// Far more operations than descriptors: recycling must work.
	for i := uint64(0); i < 100; i++ {
		d, err := r.m.New(ctx)
		if err != nil {
			t.Fatal(err)
		}
		d.Add(a, i, i+1)
		if !d.Execute(ctx) {
			t.Fatalf("op %d failed", i)
		}
	}
	if got := r.m.Read(ctx, a); got != 100 {
		t.Fatalf("value = %d, want 100", got)
	}
}

func TestConcurrentCounterIncrements(t *testing.T) {
	const workers, per = 8, 300
	r := newRig(t, 64, workers)
	a, b := r.data, r.data+64 // two counters on different lines
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := ctxN(id)
			for i := 0; i < per; i++ {
				for {
					va := r.m.Read(ctx, a)
					vb := r.m.Read(ctx, b)
					d, err := r.m.New(ctx)
					if err != nil {
						t.Errorf("New: %v", err)
						return
					}
					d.Add(a, va, va+1)
					d.Add(b, vb, vb+2)
					if d.Execute(ctx) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ctx := ctxN(0)
	if va := r.m.Read(ctx, a); va != workers*per {
		t.Fatalf("a = %d, want %d", va, workers*per)
	}
	if vb := r.m.Read(ctx, b); vb != 2*workers*per {
		t.Fatalf("b = %d, want %d", vb, 2*workers*per)
	}
	// Invariant b == 2a held atomically throughout; final check implied.
}

func TestRecoverRollsBackUndecided(t *testing.T) {
	r := newRig(t, 8, 1)
	ctx := ctxN(0)
	a, b := r.data, r.data+1
	r.pool.Store(a, 1, nil)
	r.pool.Store(b, 2, nil)
	r.pool.Persist(a, 2, nil)

	// Hand-craft a crashed phase-1 state: descriptor undecided with one
	// pointer installed.
	d, _ := r.m.New(ctx)
	d.Add(a, 1, 10)
	d.Add(b, 2, 20)
	off := r.m.descOff(d.idx)
	r.pool.Store(off+dOffCount, 2, nil)
	e0 := off + dOffEntry
	r.pool.Store(e0, a, nil)
	r.pool.Store(e0+1, 1, nil)
	r.pool.Store(e0+2, 10, nil)
	r.pool.Store(e0+3, b, nil)
	r.pool.Store(e0+4, 2, nil)
	r.pool.Store(e0+5, 20, nil)
	r.pool.Store(off+dOffStatus, statusUndecided, nil)
	r.pool.Store(a, descPtr(d.idx, d.seq), nil) // installed on a only

	m2, err := Attach(r.pool, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := m2.Recover(ctx); n != 1 {
		t.Fatalf("Recover repaired %d descriptors, want 1", n)
	}
	if m2.Read(ctx, a) != 1 || m2.Read(ctx, b) != 2 {
		t.Fatalf("rollback after recovery: a=%d b=%d", m2.Read(ctx, a), m2.Read(ctx, b))
	}
}

func TestRecoverRollsForwardSucceeded(t *testing.T) {
	r := newRig(t, 8, 1)
	ctx := ctxN(0)
	a, b := r.data, r.data+1
	r.pool.Store(a, 1, nil)
	r.pool.Store(b, 2, nil)

	// Crashed between persisting Succeeded and detaching: both pointers
	// installed, status Succeeded.
	d, _ := r.m.New(ctx)
	off := r.m.descOff(d.idx)
	r.pool.Store(off+dOffCount, 2, nil)
	e0 := off + dOffEntry
	r.pool.Store(e0, a, nil)
	r.pool.Store(e0+1, 1, nil)
	r.pool.Store(e0+2, 10, nil)
	r.pool.Store(e0+3, b, nil)
	r.pool.Store(e0+4, 2, nil)
	r.pool.Store(e0+5, 20, nil)
	r.pool.Store(a, descPtr(d.idx, d.seq), nil)
	r.pool.Store(b, descPtr(d.idx, d.seq), nil)
	r.pool.Store(off+dOffStatus, statusSucceeded, nil)

	if n := r.m.Recover(ctx); n != 1 {
		t.Fatalf("Recover repaired %d, want 1", n)
	}
	if r.m.Read(ctx, a) != 10 || r.m.Read(ctx, b) != 20 {
		t.Fatalf("roll forward: a=%d b=%d", r.m.Read(ctx, a), r.m.Read(ctx, b))
	}
}

func TestRecoverScanCostScalesWithPool(t *testing.T) {
	small := newRig(t, 64, 1)
	big := newRig(t, 4096, 1)
	ctx := ctxN(0)
	sSmall := small.pool.Stats().Snapshot().Loads
	small.m.Recover(ctx)
	loadsSmall := small.pool.Stats().Snapshot().Loads - sSmall
	sBig := big.pool.Stats().Snapshot().Loads
	big.m.Recover(ctx)
	loadsBig := big.pool.Stats().Snapshot().Loads - sBig
	if loadsBig < 10*loadsSmall {
		t.Fatalf("recovery scan not proportional: %d vs %d loads", loadsSmall, loadsBig)
	}
}

func TestReadClearsDirtyBit(t *testing.T) {
	r := newRig(t, 8, 1)
	ctx := ctxN(0)
	a := r.data
	r.pool.Store(a, 7|DirtyBit, nil)
	if got := r.m.Read(ctx, a); got != 7 {
		t.Fatalf("Read = %d, want 7", got)
	}
	if raw := r.pool.Load(a, nil); raw != 7 {
		t.Fatalf("dirty bit not cleared: %#x", raw)
	}
}

func TestCrashDuringExecuteThenRecover(t *testing.T) {
	// End-to-end: inject a crash mid-Execute with pmem tracking on, then
	// recover and verify all-or-nothing semantics.
	var r *testRig
	ctx := ctxN(0)
	crashstep.Run(t, crashstep.Scenario{
		At: []int64{3, 7, 12, 20, 35, 60},
		Setup: func(t *testing.T) []*pmem.Pool {
			r = newRig(t, 8, 1)
			r.pool.Store(r.data, 1, nil)
			r.pool.Store(r.data+1, 2, nil)
			r.pool.Persist(r.data, 2, nil)
			return []*pmem.Pool{r.pool}
		},
		Op: func(t *testing.T) {
			d, err := r.m.New(ctx)
			if err != nil {
				t.Fatal(err)
			}
			d.Add(r.data, 1, 10)
			d.Add(r.data+1, 2, 20)
			d.Execute(ctx)
		},
		Recover: func(t *testing.T) {
			var err error
			if r.m, err = Attach(r.pool, 0, 1); err != nil {
				t.Fatal(err)
			}
			r.m.Recover(ctx)
		},
		Check: func(t *testing.T, _ crashstep.Point) {
			va, vb := r.m.Read(ctx, r.data), r.m.Read(ctx, r.data+1)
			okBoth := va == 10 && vb == 20
			okNeither := va == 1 && vb == 2
			if !okBoth && !okNeither {
				t.Fatalf("torn MwCAS after recovery: a=%d b=%d", va, vb)
			}
		},
	})
}

func BenchmarkMwCAS2Words(b *testing.B) {
	r := newRig(b, 1024, 1)
	ctx := ctxN(0)
	a1, a2 := r.data, r.data+1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v1 := r.m.Read(ctx, a1)
		v2 := r.m.Read(ctx, a2)
		d, err := r.m.New(ctx)
		if err != nil {
			b.Fatal(err)
		}
		d.Add(a1, v1, v1+1)
		d.Add(a2, v2, v2+1)
		d.Execute(ctx)
	}
}
