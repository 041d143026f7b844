package skiplist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// startPausedReclaim attaches a reclaimer and immediately parks its
// goroutine, so tests can drive the retirement protocol synchronously
// (direct tryRetire/freeOne calls from the test goroutine respect the
// single-retirer contract while the goroutine is paused).
func startPausedReclaim(sl *SkipList) *Reclaimer {
	r := sl.StartReclaim(ReclaimConfig{Interval: time.Hour})
	r.Pause()
	return r
}

// emptyNodes collects every fully-tombstoned data node (bottom walk).
func emptyNodes(sl *SkipList, ctx *exec.Ctx) []riv.Ptr {
	var out []riv.Ptr
	cur := sl.node(sl.head).next(sl, 0, ctx.Mem)
	for !cur.IsNull() && cur != sl.tail {
		n := sl.node(cur)
		if sl.nodeFullyTombstoned(ctx, n) {
			out = append(out, cur)
		}
		cur = n.next(sl, 0, ctx.Mem)
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOnlineReclaimFreesTombstonedNodes runs the real background
// reclaimer against a live list: tombstoned nodes must be retired,
// unlinked and their blocks returned to the free lists without any
// quiesced maintenance call, while live keys stay intact.
func TestOnlineReclaimFreesTombstonedNodes(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	rec := e.sl.StartReclaim(ReclaimConfig{Interval: 200 * time.Microsecond, ScanNodes: 256})
	defer rec.Stop()

	for i := uint64(1); i <= 400; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	nodesBefore := e.sl.Stats(ctx).Nodes
	for i := uint64(100); i <= 300; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "blocks freed by online reclaim", func() bool {
		return rec.Stats().Freed > 20
	})
	rec.Stop()

	st := e.sl.Stats(ctx)
	if st.Nodes >= nodesBefore {
		t.Fatalf("nodes %d -> %d: reclaim unlinked nothing", nodesBefore, st.Nodes)
	}
	s := rec.Stats()
	if s.Retired < s.Freed {
		t.Fatalf("freed %d > retired %d", s.Freed, s.Retired)
	}
	for i := uint64(1); i <= 400; i++ {
		v, ok := e.sl.Get(ctx, i)
		dead := i >= 100 && i <= 300
		if dead && ok {
			t.Fatalf("removed key %d visible", i)
		}
		if !dead && (!ok || v != i) {
			t.Fatalf("live key %d: got %d,%v", i, v, ok)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	// The freed range is reusable.
	for i := uint64(150); i <= 250; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimConcurrentSoak races readers, writers and scanners against
// the active reclaimer. Every goroutine owns a disjoint key stripe and
// checks its own view; afterwards the structure must pass all
// invariants, including linked/free exclusivity.
func TestReclaimConcurrentSoak(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 4})
	rec := e.sl.StartReclaim(ReclaimConfig{Interval: 100 * time.Microsecond, ScanNodes: 512})
	defer rec.Stop()

	const (
		workers = 6
		stripe  = uint64(10_000)
		iters   = 4_000
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := exec.NewCtx(w+1, 0)
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			base := uint64(w)*stripe + 1
			live := map[uint64]uint64{}
			for i := 0; i < iters; i++ {
				k := base + uint64(rng.Intn(500))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					if _, _, err := e.sl.Insert(ctx, k, k+uint64(i)); err != nil {
						errs <- err
						return
					}
					live[k] = k + uint64(i)
				case 4, 5, 6:
					if _, _, err := e.sl.Remove(ctx, k); err != nil {
						errs <- err
						return
					}
					delete(live, k)
				case 7, 8:
					// This goroutine is its stripe's only writer, so even
					// mid-soak its own reads must match its model exactly.
					v, ok := e.sl.Get(ctx, k)
					want, in := live[k]
					if in != ok || (in && v != want) {
						errs <- fmt.Errorf("stripe %d key %d mid-soak: want %d,%v got %d,%v", w, k, want, in, v, ok)
						return
					}
				default:
					seen := uint64(0)
					e.sl.Scan(ctx, base, base+499, func(k, v uint64) bool {
						if k <= seen {
							errs <- fmt.Errorf("scan not strictly ascending: %d after %d", k, seen)
							return false
						}
						seen = k
						return true
					})
				}
			}
			// Quiesced-per-stripe check: this goroutine is the only writer
			// of its stripe, so its model must match exactly.
			for k, v := range live {
				got, ok := e.sl.Get(ctx, k)
				if !ok || got != v {
					errs <- fmt.Errorf("stripe %d key %d: want %d, got %d,%v", w, k, v, got, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rec.Stop()
	if err := e.sl.CheckInvariants(ctx0()); err != nil {
		t.Fatal(err)
	}
	if rec.Stats().Retired == 0 {
		t.Fatal("soak retired nothing — reclaimer never engaged")
	}
}

// buildTombstonedList returns an env with keys 1..200 inserted and
// 60..140 removed, so interior nodes are fully tombstoned.
func buildTombstonedList(t *testing.T) (*env, *Reclaimer) {
	t.Helper()
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	rec := startPausedReclaim(e.sl)
	ctx := ctx0()
	for i := uint64(1); i <= 200; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(60); i <= 140; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	return e, rec
}

// verifyAfterReclaimCrash reopens the pool and checks full consistency:
// invariants hold, removed keys stay removed, live keys stay live, no
// block is both linked and free, and a quiesced Compact leaves no
// retired block behind.
func verifyAfterReclaimCrash(t *testing.T, e *env) {
	t.Helper()
	e2 := e.reopen(t)
	ctx := ctx0()
	if err := e2.sl.CheckInvariants(ctx); err != nil {
		t.Fatalf("post-crash invariants: %v", err)
	}
	for i := uint64(1); i <= 200; i++ {
		v, ok := e2.sl.Get(ctx, i)
		dead := i >= 60 && i <= 140
		if dead && ok {
			t.Fatalf("removed key %d resurrected after crash", i)
		}
		if !dead && (!ok || v != i) {
			t.Fatalf("live key %d lost after crash: %d,%v", i, v, ok)
		}
	}
	if _, err := e2.sl.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if left := e2.a.RetiredBlocks(); len(left) != 0 {
		t.Fatalf("%d retired blocks survive Compact", len(left))
	}
	if err := e2.sl.CheckInvariants(ctx); err != nil {
		t.Fatalf("post-compact invariants: %v", err)
	}
	// Still fully operational.
	for i := uint64(80); i <= 120; i++ {
		if _, _, err := e2.sl.Insert(ctx, i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringRetirement sweeps a crash point through the retirement
// protocol (tombstone persist, intent log, kind flip, marks, unlink) and
// verifies the intent log makes every cut repairable at Open.
func TestCrashDuringRetirement(t *testing.T) {
	for step := int64(1); step <= 400; step += 7 {
		step := step
		t.Run(fmt.Sprintf("step%d", step), func(t *testing.T) {
			e, rec := buildTombstonedList(t)
			victims := emptyNodes(e.sl, ctx0())
			if len(victims) == 0 {
				t.Fatal("no tombstoned nodes to retire")
			}
			e.pool.EnableTracking()
			inj := pmem.NewCountdownInjector(step)
			e.pool.SetInjector(inj)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(pmem.CrashSignal); !ok {
							panic(r)
						}
					}
				}()
				for _, p := range victims {
					rec.tryRetire(p)
				}
			}()
			inj.Disarm()
			e.pool.SetInjector(nil)
			rec.Stop()
			e.pool.Crash()
			e.pool.DisableTracking()
			verifyAfterReclaimCrash(t, e)
		})
	}
}

// TestCrashDuringLimboFree retires nodes cleanly, then sweeps a crash
// point through the state-2 logged frees of the limbo blocks.
func TestCrashDuringLimboFree(t *testing.T) {
	for step := int64(1); step <= 120; step += 3 {
		step := step
		t.Run(fmt.Sprintf("step%d", step), func(t *testing.T) {
			e, rec := buildTombstonedList(t)
			ctx := ctx0()
			victims := emptyNodes(e.sl, ctx)
			for _, p := range victims {
				if !rec.tryRetire(p) {
					t.Fatalf("retire of %v refused", p)
				}
			}
			e.pool.EnableTracking()
			inj := pmem.NewCountdownInjector(step)
			e.pool.SetInjector(inj)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(pmem.CrashSignal); !ok {
							panic(r)
						}
					}
				}()
				for _, p := range rec.limbo {
					rec.freeOne(ctx, p)
				}
			}()
			inj.Disarm()
			e.pool.SetInjector(nil)
			rec.Stop()
			e.pool.Crash()
			e.pool.DisableTracking()
			verifyAfterReclaimCrash(t, e)
		})
	}
}

// TestLimboRediscoveryAfterRestart loses the volatile limbo list across
// a restart and checks a fresh reclaimer's startup scan collects the
// orphaned retired blocks without any grace period.
func TestLimboRediscoveryAfterRestart(t *testing.T) {
	e, rec := buildTombstonedList(t)
	ctx := ctx0()
	victims := emptyNodes(e.sl, ctx)
	retired := 0
	for _, p := range victims {
		if rec.tryRetire(p) {
			retired++
		}
	}
	if retired == 0 {
		t.Fatal("nothing retired")
	}
	rec.Stop() // limbo dies with the handle
	e2 := e.reopen(t)
	orphans := e2.a.RetiredBlocks()
	if len(orphans) != retired {
		t.Fatalf("found %d orphaned retired blocks, retired %d", len(orphans), retired)
	}
	rec2 := e2.sl.StartReclaim(ReclaimConfig{Interval: 200 * time.Microsecond})
	defer rec2.Stop()
	waitFor(t, "limbo rediscovery", func() bool {
		return rec2.Stats().Rediscovered == int64(retired)
	})
	rec2.Stop()
	if left := e2.a.RetiredBlocks(); len(left) != 0 {
		t.Fatalf("%d retired blocks not rediscovered", len(left))
	}
	if err := e2.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestUnlinkRetiredAllLevels retires a node with a tall tower and checks
// it is gone from every level, including the marked-next semantics (no
// level still reaches the victim through a stale pointer).
func TestUnlinkRetiredAllLevels(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 2})
	rec := startPausedReclaim(e.sl)
	defer rec.Stop()
	ctx := ctx0()
	for i := uint64(1); i <= 600; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	// Find a victim linked above level 0 to make the test meaningful.
	var victim riv.Ptr
	var vHeight int
	cur := e.sl.node(e.sl.head).next(e.sl, 0, ctx.Mem)
	for !cur.IsNull() && cur != e.sl.tail {
		n := e.sl.node(cur)
		if h := n.height(ctx.Mem); h >= 3 {
			victim, vHeight = cur, h
			break
		}
		cur = n.next(e.sl, 0, ctx.Mem)
	}
	if victim.IsNull() {
		t.Skip("no tall node materialized")
	}
	// Tombstone exactly the victim's keys.
	vn := e.sl.node(victim)
	for i := 0; i < e.sl.keysPerNode; i++ {
		if k := vn.key(e.sl, i, ctx.Mem); k != keyEmpty {
			if _, _, err := e.sl.Remove(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !rec.tryRetire(victim) {
		t.Fatal("retire refused")
	}
	if got := vn.kind(ctx.Mem); got != alloc.KindRetired {
		t.Fatalf("victim kind %d after retire", got)
	}
	for level := 0; level < vHeight; level++ {
		cur := e.sl.node(e.sl.head).next(e.sl, level, ctx.Mem)
		for !cur.IsNull() && cur != e.sl.tail {
			if cur == victim {
				t.Fatalf("victim still linked at level %d", level)
			}
			cur = e.sl.node(cur).next(e.sl, level, ctx.Mem)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestIteratorNoPhantomAfterRecycle parks an iterator on a node, retires
// and frees that node, recycles its block as a different node, and
// verifies the resumed iteration yields no phantom keys — everything it
// returns after the recycle is strictly increasing and live.
func TestIteratorNoPhantomAfterRecycle(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	rec := startPausedReclaim(e.sl)
	defer rec.Stop()
	ctx := ctx0()
	for i := uint64(1); i <= 40; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	it := e.sl.NewIterator(exec.NewCtx(1, 0))
	if !it.Seek(25) || it.Key() != 25 {
		t.Fatalf("seek 25: valid=%v", it.Valid())
	}
	// Kill everything from 21 up — including the cursor's node — then
	// retire, free WITHOUT grace (quiesced drain; the iterator holds no
	// pin between calls, which is exactly the hazard under test), and
	// recycle the blocks as fresh high-key nodes.
	for i := uint64(21); i <= 40; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range emptyNodes(e.sl, ctx) {
		rec.tryRetire(p)
	}
	if n := rec.DrainQuiesced(ctx); n == 0 {
		t.Fatal("nothing drained — cursor node was not recycled")
	}
	for i := uint64(100); i <= 140; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	for it.Next() {
		got = append(got, it.Key())
	}
	// Yields from the pre-recycle DRAM buffer (old node snapshot, keys
	// 25..40) are legal; past them, only live keys in increasing order.
	prev := uint64(25)
	for _, k := range got {
		if k <= prev {
			t.Fatalf("iterator went backwards or repeated: %d after %d (yields %v)", k, prev, got)
		}
		prev = k
		fromBuffer := k > 25 && k <= 40
		live := k >= 100 && k <= 140
		if !fromBuffer && !live {
			t.Fatalf("phantom key %d from recycled block (yields %v)", k, got)
		}
	}
	// The live tail must actually be reached — reseek may not lose it.
	if len(got) == 0 || got[len(got)-1] != 140 {
		t.Fatalf("iteration lost the live tail: %v", got)
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// stepHook runs fn once, at the at-th pool access after it is installed:
// a deterministic stand-in for another thread getting scheduled between
// two of an operation's accesses.
type stepHook struct {
	n, at int
	fn    func()
}

func (h *stepHook) Step() {
	if h.n++; h.n == h.at {
		h.fn()
	}
}

// TestRetireAtEveryStepOfAWrite lets the reclaimer retire the covering
// node — fully tombstoned, so a legitimate victim — between any two pool
// accesses of a write into that node's range: reviving a tombstoned key,
// claiming a fresh slot, with the traversal seeded from a hint or not.
// Wherever the retirement lands, the write must either keep the node
// alive (the retire is refused) or land in a node that is still part of
// the list. A traversal that adopted the victim after checking its kind
// but before reading its split count used to pass every later check and
// put the key into the unlinked block, where it was lost.
func TestRetireAtEveryStepOfAWrite(t *testing.T) {
	cfg := Config{MaxHeight: 8, KeysPerNode: 4}
	for _, tc := range []struct {
		name  string
		key   uint64 // written while the victim [100, 140) is retired
		hints bool
	}{
		{"revive", 120, false}, {"claim", 125, false},
		{"revive seeded", 120, true}, {"claim seeded", 125, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			retiredRuns := 0
			for step := 1; ; step++ {
				e := newEnvChunks(t, cfg, 4)
				e.sl.SetTuning(Tuning{NoHints: !tc.hints})
				rec := startPausedReclaim(e.sl)
				ctx := ctx0()
				for k := uint64(10); k <= 300; k += 10 {
					if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
						t.Fatal(err)
					}
				}
				// The victim: the node covering 120, emptied key by key. The
				// Get leaves it in the hint cache when hints are on.
				e.sl.Get(ctx, tc.key)
				t0 := ctx.GetTowers(cfg.MaxHeight)
				e.sl.traverse(ctx, 120, t0.Preds, t0.Succs)
				victim := t0.Preds[0]
				ctx.PutTowers(t0)
				vn := e.sl.node(victim)
				for i := 0; i < cfg.KeysPerNode; i++ {
					if k := vn.key(e.sl, i, ctx.Mem); k != keyEmpty {
						if _, _, err := e.sl.Remove(ctx, k); err != nil {
							t.Fatal(err)
						}
					}
				}
				if victim == e.sl.head || !e.sl.nodeFullyTombstoned(ctx, vn) {
					t.Fatal("no emptied covering node to retire")
				}

				retired := false
				hook := &stepHook{at: step, fn: func() { retired = rec.tryRetire(victim) }}
				e.pool.SetInjector(hook)
				_, _, err := e.sl.Insert(ctx, tc.key, 777)
				e.pool.SetInjector(nil)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if v, ok := e.sl.Get(ctx, tc.key); !ok || v != 777 {
					t.Fatalf("step %d (node retired mid-write: %v): Get(%d) = (%d,%v) after a successful Insert; %s",
						step, retired, tc.key, v, ok, e.sl.DescribeKey(ctx, tc.key))
				}
				if err := e.sl.CheckInvariants(ctx); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				rec.Stop()
				if retired {
					retiredRuns++
				}
				if hook.n < step {
					// The write finished before the hook's turn came.
					if retiredRuns == 0 {
						t.Fatal("the victim was never retired mid-write")
					}
					t.Logf("retired the covering node at each of %d steps of the write (%d retirements went through)", step-1, retiredRuns)
					return
				}
			}
		})
	}
}

// heldChecker is an injector that fails the test when the reclaimer's
// mutex is held at a pool access. Another goroutine may hold it for a
// moment (Pause between Lock and its cond wait), so a failed TryLock is
// retried; a mutex held by the accessing goroutine itself, or across
// anything that waits on a pool access, is still held a second later.
type heldChecker struct {
	t      testing.TB
	sl     *SkipList
	failed atomic.Bool
}

func (h *heldChecker) Step() {
	r := h.sl.rec
	if r == nil || h.failed.Load() {
		return
	}
	for deadline := time.Now().Add(time.Second); !r.mu.TryLock(); runtime.Gosched() {
		if time.Now().After(deadline) {
			if h.failed.CompareAndSwap(false, true) {
				h.t.Errorf("the reclaimer's mutex is held across a pool access")
			}
			return
		}
	}
	r.mu.Unlock()
}

// TestReclaimerLockNeverHeldAcrossPoolAccess: every pool access made
// while a reclaimer is attached — its start-up scan and cycles that
// retire and free nodes, a writer running meanwhile, work done between
// Pause and Resume, a quiesced drain, and Stop — happens with the
// reclaimer's mutex free, so it guards only pauses, busy and stopping.
func TestReclaimerLockNeverHeldAcrossPoolAccess(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	h := &heldChecker{t: t, sl: e.sl}
	e.pool.SetInjector(h)
	defer e.pool.SetInjector(nil)
	ctx := ctx0()
	for i := uint64(1); i <= 400; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	rec := e.sl.StartReclaim(ReclaimConfig{Interval: 200 * time.Microsecond, ScanNodes: 256, FreeBatch: 8})
	defer rec.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wctx := exec.NewCtx(1, 0)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 1000 + i%200
			if _, _, err := e.sl.Insert(wctx, k, k); err != nil {
				t.Error(err)
				return
			}
			e.sl.Get(wctx, 1000+(i*7)%200)
		}
	}()
	for i := uint64(100); i <= 300; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "blocks freed by online reclaim", func() bool { return rec.Stats().Freed > 20 })
	for i := 0; i < 20; i++ {
		rec.Pause()
		e.sl.Get(ctx, uint64(i+1))
		rec.Resume()
	}
	close(stop)
	wg.Wait()

	retired := rec.Stats().Retired
	for i := uint64(301); i <= 350; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a retirement after the writer stopped", func() bool { return rec.Stats().Retired > retired })
	rec.Pause()
	rec.DrainQuiesced(ctx)
	rec.Resume()
	rec.Stop()
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}
