package upskiplist

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/pmem"
)

func snapOptions() Options {
	o := testOptions()
	o.Snapshots = true
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

// TestSnapshotDisabled pins the error surface on a store without the
// subsystem enabled.
func TestSnapshotDisabled(t *testing.T) {
	st, err := Create(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(); !errors.Is(err, ErrSnapshotsDisabled) {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := st.Changes(0); !errors.Is(err, ErrSnapshotsDisabled) {
		t.Fatalf("Changes: %v", err)
	}
	if st.FeedEra() != 0 {
		t.Fatal("FeedEra nonzero without snapshots")
	}
}

// TestChangesFeedReplay checks the change-feed cursor: every committed
// batch is recorded in era order, and replaying the changes reproduces
// the store's final state.
func TestChangesFeedReplay(t *testing.T) {
	st, err := Create(snapOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	w.ApplyBatch([]Op{
		{Kind: OpInsert, Key: 1, Value: u64v(10)},
		{Kind: OpInsert, Key: 2, Value: u64v(20)},
		{Kind: OpInsert, Key: 3, Value: u64v(30)},
	})
	w.ApplyBatch([]Op{
		{Kind: OpInsert, Key: 2, Value: u64v(21)},
		{Kind: OpRemove, Key: 3},
		{Kind: OpRemove, Key: 99}, // absent: must not be recorded
	})
	if got := st.FeedEra(); got != 2 {
		t.Fatalf("FeedEra = %d, want 2", got)
	}
	batches, err := st.Changes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0].Era != 1 || batches[1].Era != 2 {
		t.Fatalf("batches = %+v", batches)
	}
	if len(batches[1].Changes) != 2 {
		t.Fatalf("batch 2 changes = %+v (remove of absent key recorded?)", batches[1].Changes)
	}
	// Replay into a map; must match the live store.
	replay := map[uint64]uint64{}
	for _, b := range batches {
		for _, c := range b.Changes {
			if c.Kind == ChangeDel {
				delete(replay, c.Key)
			} else {
				replay[c.Key] = leU64(c.Value)
			}
		}
	}
	if len(replay) != 2 || replay[1] != 10 || replay[2] != 21 {
		t.Fatalf("replayed state = %v", replay)
	}
	// Cursor at the high-water mark sees nothing new.
	if more, err := st.Changes(st.FeedEra()); err != nil || len(more) != 0 {
		t.Fatalf("Changes(head) = %v, %v", more, err)
	}
}

// TestSnapshotChangesCompose checks the re-sync recipe: a snapshot's
// frozen dump plus a Changes replay from the snapshot's FeedEra equals
// the live state.
func TestSnapshotChangesCompose(t *testing.T) {
	st, err := Create(snapOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	for i := uint64(1); i <= 100; i++ {
		w.ApplyBatch([]Op{{Kind: OpInsert, Key: i, Value: u64v(i)}})
	}
	sn, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	for i := uint64(50); i <= 150; i++ {
		w.ApplyBatch([]Op{{Kind: OpInsert, Key: i, Value: u64v(i * 7)}, {Kind: OpRemove, Key: i - 40}})
	}

	state := map[uint64]uint64{}
	sn.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool { state[k] = v; return true })
	batches, err := st.Changes(sn.FeedEra())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, c := range b.Changes {
			if c.Kind == ChangeDel {
				delete(state, c.Key)
			} else {
				state[c.Key] = leU64(c.Value)
			}
		}
	}
	live := map[uint64]uint64{}
	w.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool { live[k] = v; return true })
	if len(state) != len(live) {
		t.Fatalf("re-synced %d keys, live %d", len(state), len(live))
	}
	for k, v := range live {
		if state[k] != v {
			t.Fatalf("key %d: re-synced %d, live %d", k, state[k], v)
		}
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
	write := func(snap bool) *Store {
		st, err := Create(snapOptions())
		if err != nil {
			t.Fatal(err)
		}
		w := st.NewWorker(0)
		for i := uint64(1); i <= 300; i++ {
			if _, _, err := w.PutU64(i, i); err != nil {
				t.Fatal(err)
			}
		}
		if snap {
			if _, err := st.Snapshot(); err != nil { // never released: dies with the crash
				t.Fatal(err)
			}
		}
		for r := uint64(0); r < 3; r++ {
			for i := uint64(1); i <= 300; i++ {
				if _, _, err := w.PutU64(i, i*10+r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return st
	}
	st, twin := write(true), write(false)
	if st.snapshotLogEntries() == 0 {
		t.Fatal("expected shadowed versions before the crash")
	}

	st.SimulateCrash()
	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	w2 := st2.NewWorker(0)
	for i := uint64(1); i <= 300; i++ {
		if v, ok := w2.GetU64(i); !ok || v != i*10+2 {
			t.Fatalf("after crash Get(%d) = %d,%v, want %d,true", i, v, ok, i*10+2)
		}
	}
	if got, want := st2.BlockCensus(), twin.BlockCensus(); got != want {
		t.Fatalf("census after crash %+v, never-crashed twin %+v", got, want)
	}
	for i, e := range st2.shards {
		if n := len(e.alloc.RetiredBlocks()); n != 0 {
			t.Fatalf("shard %d: startup scan would rediscover %d blocks", i, n)
		}
	}
	st2.EnableOnlineReclaim()
	st2.DisableOnlineReclaim()
	if n := st2.ReclaimStats().Rediscovered; n != 0 {
		t.Fatalf("reclaimer rediscovered %d blocks", n)
	}
	if err := w2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
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

// TestEnableSnapshotsWithReclaimerRunning switches snapshots on while
// each shard's background reclaimer is in its first cycles — what
// server.New does to a store created with OnlineReclaim. Under -race
// this fails unless EnableSnapshots holds the reclaimers itself.
func TestEnableSnapshotsWithReclaimerRunning(t *testing.T) {
	for i := 0; i < 20; i++ {
		o := testOptions()
		o.Shards = 2
		o.OnlineReclaim = true
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		st.EnableSnapshots()
		w := st.NewWorker(0)
		if _, _, err := w.PutU64(uint64(i+1), 7); err != nil {
			t.Fatal(err)
		}
		sn, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sn.Release()
		st.DisableOnlineReclaim()
	}
}
