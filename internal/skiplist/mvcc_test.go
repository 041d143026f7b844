package skiplist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"upskiplist/internal/alloc"
	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/riv"
)

// dumpList collects every live pair via the plain iterator.
func dumpList(sl *SkipList, ctx *exec.Ctx) []kv {
	var out []kv
	it := sl.NewIterator(ctx)
	for ok := it.Seek(KeyMin); ok; ok = it.Next() {
		out = append(out, kv{k: it.Key(), v: it.Value()})
	}
	return out
}

// dumpSnap collects every frozen pair of a snapshot.
func dumpSnap(t testing.TB, p *ListSnap, ctx *exec.Ctx) []kv {
	var out []kv
	err := p.Scan(ctx, KeyMin, KeyMax, func(k, v uint64) bool {
		out = append(out, kv{k: k, v: v})
		return true
	})
	if err != nil {
		t.Fatalf("snap scan: %v", err)
	}
	return out
}

func pairsEqual(a, b []kv) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// TestSnapshotFrozenBasic pins a snapshot, rewrites the world, and
// checks the snapshot still answers with the pre-snapshot state while
// the live view moved on — then checks Release empties the version log.
func TestSnapshotFrozenBasic(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	for i := uint64(1); i <= 200; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	rctx := exec.NewCtx(50, 0)
	snap, err := e.sl.AcquireSnapshot(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.sl.vlog.open.Load(); got != 1 {
		t.Fatalf("open snapshots = %d, want 1", got)
	}

	// Rewrite: update 1..100, remove 150..180, insert 201..250.
	for i := uint64(1); i <= 100; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i*1000); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(150); i <= 180; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(201); i <= 250; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i*10); err != nil {
			t.Fatal(err)
		}
	}

	// Frozen point reads.
	for i := uint64(1); i <= 200; i++ {
		v, ok := snap.Get(rctx, i)
		if !ok || v != i*10 {
			t.Fatalf("snap.Get(%d) = %d,%v, want %d,true", i, v, ok, i*10)
		}
	}
	for i := uint64(201); i <= 250; i++ {
		if _, ok := snap.Get(rctx, i); ok {
			t.Fatalf("snap.Get(%d) sees post-snapshot insert", i)
		}
	}
	// Frozen scan: exactly the 200 original pairs, ascending.
	var want []kv
	for i := uint64(1); i <= 200; i++ {
		want = append(want, kv{k: i, v: i * 10})
	}
	got := dumpSnap(t, snap, rctx)
	if i, ok := pairsEqual(want, got); !ok {
		t.Fatalf("snap scan diverges (len %d vs %d, first diff at %d)", len(want), len(got), i)
	}
	// Live view moved on.
	if v, ok := e.sl.Get(ctx, 1); !ok || v != 1000 {
		t.Fatalf("live Get(1) = %d,%v, want 1000,true", v, ok)
	}
	if _, ok := e.sl.Get(ctx, 160); ok {
		t.Fatal("live Get(160) should be removed")
	}

	snap.Release(rctx)
	snap.Release(rctx) // idempotent
	if got := e.sl.vlog.open.Load(); got != 0 {
		t.Fatalf("open snapshots after release = %d, want 0", got)
	}
	if n := e.sl.VersionLogLen(); n != 0 {
		t.Fatalf("version log holds %d entries after the last release", n)
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestResumeWithoutPausePanics pins the ResumeReclaim guard: an
// unmatched Resume is a programming error and must fail loudly, not
// corrupt the pause count.
func TestResumeWithoutPausePanics(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("Resume without matching Pause did not panic")
		}
	}()
	e.sl.ResumeReclaim()
}

// TestSnapshotFrozenUnderChurn is the -race frozen-view regression: a
// snapshot is pinned over a quiesced reference state, then concurrent
// writers drive node splits and updates while retiring the nodes their
// removes empty — and every snapshot scan taken meanwhile must
// be bit-identical to the reference dump (same keys, same values, same
// ascending order; re-exercises the iterator ascending-order fix).
func TestSnapshotFrozenUnderChurn(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 4})
	ctx := ctx0()

	// Base state: sparse keys so later inserts land between them and
	// force splits. Then some tombstones for the reclaimer to chew on.
	const base = 3000
	for i := uint64(0); i < base; i++ {
		if _, _, err := e.sl.Insert(ctx, 10+i*5, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < base; i += 10 {
		if _, _, err := e.sl.Remove(ctx, 10+i*5); err != nil {
			t.Fatal(err)
		}
	}
	ref := dumpList(e.sl, ctx)
	e.sl.SetOnlineReclaim(true)

	rctx := exec.NewCtx(50, 0)
	snap, err := e.sl.AcquireSnapshot(rctx)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			wctx := exec.NewCtx(tid, 0)
			for r := uint64(0); !stop.Load(); r++ {
				for i := uint64(tid); i < base; i += writers {
					k := 10 + i*5
					var err error
					switch (i + r) % 3 {
					case 0: // update in place
						_, _, err = e.sl.Insert(wctx, k, i^r)
					case 1: // insert a gap key: forces splits
						_, _, err = e.sl.Insert(wctx, k+1+r%3, r)
					default: // churn for the reclaimer
						_, _, err = e.sl.Remove(wctx, k)
					}
					if err != nil {
						errs <- fmt.Errorf("writer %d: %w", tid, err)
						return
					}
				}
			}
		}(w + 1)
	}

	for round := 0; round < 15; round++ {
		got := dumpSnap(t, snap, rctx)
		if i, ok := pairsEqual(ref, got); !ok {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("round %d: snapshot scan diverged from reference (len %d vs %d, first diff at %d)",
				round, len(ref), len(got), i)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// One more scan after the dust settles, then release.
	if i, ok := pairsEqual(ref, dumpSnap(t, snap, rctx)); !ok {
		t.Fatalf("final snapshot scan diverged at %d", i)
	}
	snap.Release(rctx)
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCrashLeavesNoOrphans crashes (reopen with epoch advance)
// while a snapshot is open over many shadowed versions: the reopened
// list must serve the latest committed values, and its pools must hold
// exactly what a never-crashed twin that ran the same writes with no
// snapshot holds — the version log lived in memory, so there is nothing
// for the first retire after Open to rediscover.
func TestSnapshotCrashLeavesNoOrphans(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 8, KeysPerNode: 4}, chunks: 512}
	write := func(t *testing.T, snap bool) {
		ctx := ctx0()
		for i := uint64(1); i <= 300; i++ {
			if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
				t.Fatal(err)
			}
		}
		if snap {
			if _, err := e.sl.AcquireSnapshot(exec.NewCtx(50, 0)); err != nil {
				t.Fatal(err)
			}
		}
		for r := uint64(0); r < 4; r++ {
			for i := uint64(1); i <= 300; i++ {
				if _, _, err := e.sl.Insert(ctx, i, i*100+r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	crashstep.Run(t, crashstep.Scenario{
		Setup: e.setup,
		// The snapshot is never released and dies with the process.
		Op: func(t *testing.T) {
			if write(t, true); e.sl.VersionLogLen() == 0 {
				t.Fatal("expected shadowed versions before the crash")
			}
		},
		Twin: func(t *testing.T) {
			e.setup(t)
			write(t, false)
		},
		Recover: e.restart,
		Check: func(t *testing.T, _ crashstep.Point) {
			ctx2 := ctx0()
			for i := uint64(1); i <= 300; i++ {
				v, ok := e.sl.Get(ctx2, i)
				if !ok || v != i*100+3 {
					t.Fatalf("after reopen Get(%d) = %d,%v, want %d,true", i, v, ok, i*100+3)
				}
			}
			if n := len(e.a.RetiredBlocks()); n != 0 {
				t.Fatalf("startup scan would rediscover %d blocks", n)
			}
			offer(e.sl, ctx2, e.sl.head) // refused, but the drain collects
			if n := e.sl.ReclaimStats().Rediscovered; n != 0 {
				t.Fatalf("first retire rediscovered %d blocks", n)
			}
			if err := e.sl.CheckInvariants(ctx2); err != nil {
				t.Fatal(err)
			}
		},
		Census: func(t *testing.T) any { return e.a.Census() },
	})
}

// TestOldImageVersionOrphansFreed: an image written while the version
// log lived on pool blocks may carry blocks stamped with the legacy
// version kind. After a crash and reopen the first retire's one kind
// scan must find them with the retired blocks and return every one to
// the free lists.
func TestOldImageVersionOrphansFreed(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	for i := uint64(1); i <= 100; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	// As the pool-backed log left them: allocated from a writer's
	// context, kind stamped and persisted, payload never flushed.
	var legacy []riv.Ptr
	for i := 0; i < 5; i++ {
		p, err := e.a.Alloc(exec.NewCtx(7, 0), riv.Null, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool, off := e.space.Resolve(p)
		pool.Store(off+alloc.BlockKind, alloc.KindLegacyVersion, nil)
		pool.Persist(off+alloc.BlockKind, 1, nil)
		legacy = append(legacy, p)
	}
	before := e.a.Census()

	e2 := e.reopen(t)
	if got := e2.a.RetiredBlocks(); len(got) != len(legacy) {
		t.Fatalf("startup scan finds %d blocks, want the %d legacy version blocks", len(got), len(legacy))
	}
	offer(e2.sl, ctx0(), e2.sl.head) // refused, but the drain collects
	if got := e2.sl.ReclaimStats().Rediscovered; got != int64(len(legacy)) {
		t.Fatalf("first retire rediscovered %d blocks, want the %d legacy version blocks", got, len(legacy))
	}
	free := make(map[riv.Ptr]bool)
	e2.a.ForEachFree(func(p riv.Ptr) { free[p] = true })
	for _, p := range legacy {
		pool, off := e2.space.Resolve(p)
		if k := pool.Load(off+alloc.BlockKind, nil); k != alloc.KindFree || !free[p] {
			t.Fatalf("legacy block %v: kind %d, on a free list %v", p, k, free[p])
		}
	}
	after := e2.a.Census()
	if after.Retired != 0 || after.Node != before.Node || after.Free != before.Free+len(legacy) {
		t.Fatalf("census %+v after the scan, %+v before the crash", after, before)
	}
	if err := e2.sl.CheckInvariants(ctx0()); err != nil {
		t.Fatal(err)
	}
}
