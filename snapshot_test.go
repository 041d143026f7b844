package upskiplist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/crashstep"
	"upskiplist/internal/pmem"
)

func snapOptions() Options {
	o := testOptions()
	return o
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreSnapshotFrozenView pins a multi-shard snapshot and checks it
// serves the exact pre-snapshot state — point reads, merged scan order,
// count — while the live store moves on underneath it.
func TestStoreSnapshotFrozenView(t *testing.T) {
	o := snapOptions()
	o.Shards = 2
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	for i := uint64(1); i <= 400; i++ {
		if _, _, err := w.PutU64(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.SnapshotsOpen(); got != 1 {
		t.Fatalf("SnapshotsOpen = %d, want 1", got)
	}

	for i := uint64(1); i <= 200; i++ {
		w.PutU64(i, i*999)
	}
	for i := uint64(300); i <= 350; i++ {
		w.RemoveU64(i)
	}
	for i := uint64(401); i <= 500; i++ {
		w.PutU64(i, i*3)
	}

	for i := uint64(1); i <= 400; i++ {
		v, ok := sn.GetU64(i)
		if !ok || v != i*3 {
			t.Fatalf("snap.GetU64(%d) = %d,%v, want %d,true", i, v, ok, i*3)
		}
	}
	if _, ok := sn.GetU64(450); ok {
		t.Fatal("snapshot sees a post-snapshot insert")
	}
	if n := sn.Count(); n != 400 {
		t.Fatalf("snap.Count = %d, want 400", n)
	}
	var prev uint64
	n := 0
	sn.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool {
		if k <= prev {
			t.Fatalf("scan order violated: %d after %d", k, prev)
		}
		if v != k*3 {
			t.Fatalf("scan pair %d -> %d, want %d", k, v, k*3)
		}
		prev = k
		n++
		return true
	})
	if n != 400 {
		t.Fatalf("scan visited %d pairs, want 400", n)
	}
	// The live view did move on.
	if v, ok := w.GetU64(100); !ok || v != 100*999 {
		t.Fatalf("live Get(100) = %d,%v", v, ok)
	}

	sn.Release()
	sn.Release() // idempotent
	if got := st.SnapshotsOpen(); got != 0 {
		t.Fatalf("SnapshotsOpen after release = %d, want 0", got)
	}
	if n := st.snapshotLogEntries(); n != 0 {
		t.Fatalf("version log holds %d entries after the last release", n)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveOnlineDuringWrites drives sustained writes while SaveOnline
// streams a snapshot dump — no quiesce, no PauseReclaim — then Loads
// the dump and checks it is a consistent cut: every key present maps to
// its one true value, and everything written before the save started is
// present.
func TestSaveOnlineDuringWrites(t *testing.T) {
	dir := t.TempDir()
	o := snapOptions()
	o.Shards = 2
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	const base = 2000
	w := st.NewWorker(0)
	for i := uint64(1); i <= base; i++ {
		if _, _, err := w.PutU64(i, i*7); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ww := st.NewWorker(tid)
			for k := uint64(base + 1 + tid); !stop.Load(); k += 2 {
				ww.PutU64(k, k*7)
			}
		}(g + 1)
	}
	if err := st.SaveOnline(dir); err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if st.SnapshotsOpen() != 0 {
		t.Fatal("SaveOnline leaked its snapshot")
	}

	ld, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	lw := ld.NewWorker(0)
	for i := uint64(1); i <= base; i++ {
		if v, ok := lw.GetU64(i); !ok || v != i*7 {
			t.Fatalf("loaded key %d = %d,%v, want %d,true", i, v, ok, i*7)
		}
	}
	// Whatever slice of the concurrent inserts made the cut must carry
	// consistent values.
	lw.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool {
		if v != k*7 {
			t.Fatalf("loaded pair %d -> %d, want %d", k, v, k*7)
		}
		return true
	})
	if err := lw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCrashRecovery crashes with a snapshot open over shadowed
// versions: reopen must serve the latest committed values, and the
// pools must hold exactly what a never-crashed twin that ran the same
// writes with no snapshot holds — the version log lived in memory, so
// the reclaimer's startup scan finds nothing to rediscover.
func TestSnapshotCrashRecovery(t *testing.T) {
	c := &crashStore{}
	fill := func(t *testing.T) []*pmem.Pool {
		pools := c.create(t, snapOptions())
		for i := uint64(1); i <= 300; i++ {
			if _, _, err := c.w.PutU64(i, i); err != nil {
				t.Fatal(err)
			}
		}
		return pools
	}
	overwrite := func(t *testing.T) {
		for r := uint64(0); r < 3; r++ {
			for i := uint64(1); i <= 300; i++ {
				if _, _, err := c.w.PutU64(i, i*10+r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	crashstep.Run(t, crashstep.Scenario{
		Setup: fill,
		Op: func(t *testing.T) {
			if _, err := c.Snapshot(); err != nil { // never released: dies with the crash
				t.Fatal(err)
			}
			if overwrite(t); c.snapshotLogEntries() == 0 {
				t.Fatal("expected shadowed versions before the crash")
			}
		},
		Twin: func(t *testing.T) {
			fill(t)
			overwrite(t)
		},
		Recover: c.restart,
		Check: func(t *testing.T, _ crashstep.Point) {
			for i := uint64(1); i <= 300; i++ {
				if v, ok := c.w.GetU64(i); !ok || v != i*10+2 {
					t.Fatalf("after crash Get(%d) = %d,%v, want %d,true", i, v, ok, i*10+2)
				}
			}
			for i, e := range c.shards {
				if n := len(e.alloc.RetiredBlocks()); n != 0 {
					t.Fatalf("shard %d: startup scan would rediscover %d blocks", i, n)
				}
			}
			c.EnableOnlineReclaim()
			c.DisableOnlineReclaim()
			if n := c.ReclaimStats().Rediscovered; n != 0 {
				t.Fatalf("reclaimer rediscovered %d blocks", n)
			}
			if err := c.w.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		},
		Census: func(t *testing.T) any { return c.BlockCensus() },
	})
}

// snapCountStream is the seeded write stream of
// TestSnapshotWritersTouchNoPool: inline 8-byte overwrites of existing
// keys and inserts of new ones, no removes, nothing out of line.
func snapCountStream(t *testing.T, w *Worker, preload uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(26))
	next := preload
	for i := 0; i < 22_000; i++ {
		k := 1 + uint64(rng.Int63n(int64(preload)))
		if rng.Intn(11) == 0 {
			next++
			k = next
		}
		if _, _, err := w.PutU64(k, uint64(rng.Int63n(1<<62))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotWritersTouchNoPool: an open snapshot costs writers no pool
// access. Two identical stores run the same seeded stream on one worker,
// one of them with a Snap held open throughout; every published pmem
// counter must come out equal. The held Snap must still serve every
// pre-stream value afterwards.
func TestSnapshotWritersTouchNoPool(t *testing.T) {
	const preload = 2000
	run := func(hold bool) (pmem.StatsSnapshot, *Snap) {
		o := snapOptions()
		o.Cost = pmem.DefaultCostModel() // line misses are counted only under the model
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		w := st.NewWorker(1)
		for k := uint64(1); k <= preload; k++ {
			if _, _, err := w.PutU64(k, k); err != nil {
				t.Fatal(err)
			}
		}
		var sn *Snap
		if hold {
			if sn, err = st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		base := st.Stats().Mem
		snapCountStream(t, w, preload)
		return memDelta(st, base), sn
	}
	plain, _ := run(false)
	held, sn := run(true)
	defer sn.Release()
	if plain.Loads == 0 || plain.Stores == 0 || plain.Fences == 0 {
		t.Fatalf("the stream published no pool accesses: %+v", plain)
	}
	if held != plain {
		t.Fatalf("writers under an open snapshot\n got %+v misses=%d\nwant %+v misses=%d", held, held.Misses, plain, plain.Misses)
	}
	if sn.s.snapshotLogEntries() == 0 {
		t.Fatal("the stream shadowed no version")
	}
	for k := uint64(1); k <= preload; k++ {
		if v, ok := sn.GetU64(k); !ok || v != k {
			t.Fatalf("snap.GetU64(%d) = %d,%v, want %d,true", k, v, ok, k)
		}
	}
	want := uint64(1)
	if err := sn.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool {
		if k != want || v != k {
			t.Fatalf("snap scan pair %d -> %d, want %d -> %d", k, v, want, want)
		}
		want++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want != preload+1 {
		t.Fatalf("snap scan visited %d pairs, want %d", want-1, preload)
	}
}

// TestSnapshotOverwritesOnFullPool: with the pool exhausted by inserts,
// a snapshot opens and every surviving key is overwritten in place; no
// overwrite may fail for want of pool space to record the prior value,
// and the snapshot reads the old values.
func TestSnapshotOverwritesOnFullPool(t *testing.T) {
	o := snapOptions()
	o.PoolWords = 1 << 17
	o.ChunkWords = 1 << 12
	o.MaxChunks = 64
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	var n uint64
	for {
		_, _, err := w.PutU64(n+1, n+1)
		if errors.Is(err, alloc.ErrPoolFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	for k := uint64(1); k <= n; k++ {
		if _, _, err := w.PutU64(k, k+1_000_000); err != nil {
			t.Fatalf("overwrite %d of %d on a full pool: %v", k, n, err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := sn.GetU64(k); !ok || v != k {
			t.Fatalf("snap.GetU64(%d) = %d,%v, want %d,true", k, v, ok, k)
		}
		if v, ok := w.GetU64(k); !ok || v != k+1_000_000 {
			t.Fatalf("live GetU64(%d) = %d,%v", k, v, ok)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTooManySnapshots exhausts the reader-slot bitmap.
func TestTooManySnapshots(t *testing.T) {
	st, err := Create(snapOptions())
	if err != nil {
		t.Fatal(err)
	}
	var open []*Snap
	defer func() {
		for _, sn := range open {
			sn.Release()
		}
	}()
	for i := 0; i < 64; i++ {
		sn, err := st.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		open = append(open, sn)
	}
	if _, err := st.Snapshot(); !errors.Is(err, ErrTooManySnapshots) {
		t.Fatalf("65th snapshot: %v", err)
	}
	// Releasing one frees a slot.
	open[10].Release()
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	open[10] = sn
}

// TestSnapshotOnEveryStore: snapshots are not a mode. Whatever built the
// store — Create with DefaultOptions, Load of either dump kind, Reopen
// after a crash — it opens a snapshot straight away, and the snapshot
// serves the frozen bytes while a writer overwrites every key. The last
// row opens one on a Load-ed store whose reclaimers are already running
// under two active writers (run it under -race).
func TestSnapshotOnEveryStore(t *testing.T) {
	const n = 300
	fill := func(t *testing.T) *Store {
		st, err := Create(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		w := st.NewWorker(0)
		for k := uint64(1); k <= n; k++ {
			if _, _, err := w.Put(k, genVal(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	saved := func(t *testing.T, save func(*Store, string) error) *Store {
		dir := t.TempDir()
		if err := save(fill(t), dir); err != nil {
			t.Fatal(err)
		}
		st, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, row := range []struct {
		name string
		open func(*testing.T) *Store
	}{
		{"Create", fill},
		{"Save+Load", func(t *testing.T) *Store { return saved(t, (*Store).Save) }},
		{"SaveOnline+Load", func(t *testing.T) *Store { return saved(t, (*Store).SaveOnline) }},
		{"SimulateCrash+Reopen", func(t *testing.T) *Store {
			st := fill(t)
			st.SimulateCrash()
			st2, err := st.Reopen()
			if err != nil {
				t.Fatal(err)
			}
			return st2
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			st := row.open(t)
			sn, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Release()
			done := make(chan error, 1)
			go func() {
				w := st.NewWorker(1)
				for k := uint64(1); k <= n; k++ {
					if _, _, err := w.Put(k, genVal(k, 1)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			stale := uint64(0)
			for k := uint64(1); k <= n; k++ {
				if got, ok := sn.Get(k); (!ok || !bytes.Equal(got, genVal(k, 0))) && stale == 0 {
					stale = k
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if stale != 0 {
				t.Fatalf("snapshot read of key %d is not the pre-snapshot value", stale)
			}
			k := uint64(1)
			sn.Scan(KeyMin, KeyMax, func(key uint64, v []byte) bool {
				if key != k || !bytes.Equal(v, genVal(key, 0)) {
					t.Fatalf("frozen scan at key %d (want %d): not the pre-snapshot pair", key, k)
				}
				k++
				return true
			})
			if k != n+1 {
				t.Fatalf("frozen scan saw %d keys, want %d", k-1, n)
			}
			if got, ok := st.NewWorker(0).Get(n); !ok || !bytes.Equal(got, genVal(n, 1)) {
				t.Fatal("the live view did not move on")
			}
		})
	}

	t.Run("Load+reclaim+writers", func(t *testing.T) {
		// stamp is key k's generation-gen value: gen, then k, then a
		// key-sized tail, so each key keeps its slab class.
		stamp := func(k, gen uint64) []byte {
			v := binary.LittleEndian.AppendUint64(nil, gen)
			v = binary.LittleEndian.AppendUint64(v, k)
			return append(v, make([]byte, k%300)...)
		}
		o := testOptions()
		o.Shards = 2
		src, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		w := src.NewWorker(0)
		for k := uint64(1); k <= n; k++ {
			if _, _, err := w.Put(k, stamp(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := src.Save(dir); err != nil {
			t.Fatal(err)
		}
		st, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.EnableOnlineReclaim()
		defer st.DisableOnlineReclaim()

		// Each writer runs a fixed number of generations over its half
		// of the keys: while the snapshot is open nothing retired is
		// freed, so unbounded writers would fill the pool.
		const gens = 100
		var rounds [2]atomic.Uint64
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ww := st.NewWorker(1 + g)
				for gen := uint64(1); gen <= gens; gen++ {
					for k := uint64(1 + g); k <= n; k += 2 {
						if _, _, err := ww.Put(k, stamp(k, gen)); err != nil {
							errs <- err
							return
						}
					}
					rounds[g].Store(gen)
				}
			}()
		}
		defer wg.Wait()
		waitForCond(t, "writers running", func() bool { return rounds[0].Load() > 2 && rounds[1].Load() > 2 })

		sn, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Release()
		dump := func() map[uint64]uint64 {
			out := make(map[uint64]uint64, n)
			sn.Scan(KeyMin, KeyMax, func(k uint64, v []byte) bool {
				if len(v) != 16+int(k%300) || binary.LittleEndian.Uint64(v[8:]) != k {
					t.Fatalf("frozen key %d holds a malformed value (%d bytes)", k, len(v))
				}
				out[k] = binary.LittleEndian.Uint64(v)
				return true
			})
			return out
		}
		first := dump()
		t.Logf("writer generations when the first frozen scan ended: %d, %d of %d", rounds[0].Load(), rounds[1].Load(), gens)
		wg.Wait()
		if len(first) != n {
			t.Fatalf("frozen view holds %d keys, want %d", len(first), n)
		}
		for k, gen := range dump() {
			if first[k] != gen {
				t.Fatalf("frozen key %d moved from generation %d to %d", k, first[k], gen)
			}
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	})
}

// snapLockChecker is an injector that fails the test when the store's
// snapshot mutex is held at a pool access. Another goroutine may hold it
// for a moment, so a failed TryLock is retried; a mutex held by the
// accessing goroutine itself is still held a second later.
type snapLockChecker struct {
	t      testing.TB
	st     *Store
	failed atomic.Bool
}

func (c *snapLockChecker) Step() {
	if c.failed.Load() {
		return
	}
	for deadline := time.Now().Add(time.Second); !c.st.snapMu.TryLock(); runtime.Gosched() {
		if time.Now().After(deadline) {
			if c.failed.CompareAndSwap(false, true) {
				c.t.Errorf("snapMu is held across a pool access")
			}
			return
		}
	}
	c.st.snapMu.Unlock()
}

// TestSnapLockNeverHeldAcrossPoolAccess: opening, reading and releasing
// snapshots and SaveOnline, all under a running writer and with online
// reclaim attached, make every pool access with snapMu free, so it
// guards only the reader-slot bits and their open times.
func TestSnapLockNeverHeldAcrossPoolAccess(t *testing.T) {
	o := testOptions()
	o.Shards = 2
	o.OnlineReclaim = true
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.DisableOnlineReclaim()
	st.SetInjector(&snapLockChecker{t: t, st: st})
	defer st.SetInjector(nil)
	w := st.NewWorker(0)
	for k := uint64(1); k <= 2000; k++ {
		if _, _, err := w.Put(k, []byte("initial value")); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ww := st.NewWorker(1)
		val := make([]byte, 100)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 1 + i%2000
			if i%3 == 0 {
				ww.Remove(k)
			} else if _, _, err := ww.Put(k, val[:i%100]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		sn, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sn.Get(uint64(1 + i))
		sn.Scan(1, 200, func(uint64, []byte) bool { return true })
		st.SnapshotsOpen()
		st.OldestSnapshotAge()
		sn.Release()
	}
	if err := st.SaveOnline(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
