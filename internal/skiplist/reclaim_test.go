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
	"upskiplist/internal/crashstep"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// offer hands p to the inline retire path from the test goroutine, as
// a Remove that emptied it would, and reports whether it was retired.
// The caller's own drain runs too: the first one after Open collects
// the blocks retired before it, and every one frees the limbo batches
// whose grace has passed.
func offer(sl *SkipList, ctx *exec.Ctx, p riv.Ptr) bool {
	before := sl.ReclaimStats().Retired
	sl.retireEmptied(ctx, p)
	return sl.ReclaimStats().Retired > before
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

// TestOnlineReclaimFreesTombstonedNodes runs inline retirement on a
// live list: the removes that empty nodes must retire and unlink them,
// and later retires return their blocks to the free lists after the
// grace period, without any quiesced maintenance call, while live keys
// stay intact.
func TestOnlineReclaimFreesTombstonedNodes(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	e.sl.SetOnlineReclaim(true)

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
	if freed := e.sl.ReclaimStats().Freed; freed <= 20 {
		t.Fatalf("online reclaim freed %d blocks, want > 20", freed)
	}
	e.sl.SetOnlineReclaim(false)

	st := e.sl.Stats(ctx)
	if st.Nodes >= nodesBefore {
		t.Fatalf("nodes %d -> %d: reclaim unlinked nothing", nodesBefore, st.Nodes)
	}
	s := e.sl.ReclaimStats()
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

// TestReclaimConcurrentSoak races readers, writers and scanners, each
// retiring the nodes its removes empty. Every goroutine owns a disjoint
// key stripe and checks its own view; afterwards the structure must
// pass all invariants, including linked/free exclusivity.
func TestReclaimConcurrentSoak(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 12, KeysPerNode: 4})
	e.sl.SetOnlineReclaim(true)

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
	if err := e.sl.CheckInvariants(ctx0()); err != nil {
		t.Fatal(err)
	}
	if e.sl.ReclaimStats().Retired == 0 {
		t.Fatal("soak retired nothing — inline retirement never engaged")
	}
}

// TestLimboSettlesWhenRemovesStop: once the last burst of removes is
// over, no later retire comes to close the open limbo batch or free the
// closed ones. The worker's point operations alone must do both, within
// two settles.
func TestLimboSettlesWhenRemovesStop(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	ctx := ctx0()
	for k := uint64(1); k <= 400; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	e.sl.SetOnlineReclaim(true)
	for k := uint64(1); k <= 100; k++ {
		if _, _, err := e.sl.Remove(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	st := e.sl.ReclaimStats()
	if st.Retired == 0 || st.LimboDepth == 0 {
		t.Fatalf("retired %d, limbo %d: want both non-zero after the burst", st.Retired, st.LimboDepth)
	}
	ops := 0
	for ; ops < 2*settleEvery && e.sl.ReclaimStats().LimboDepth > 0; ops++ {
		if v, ok := e.sl.Get(ctx, 200); !ok || v != 200 {
			t.Fatalf("Get(200) = %d,%v", v, ok)
		}
	}
	if st := e.sl.ReclaimStats(); st.LimboDepth != 0 || st.Freed != st.Retired {
		t.Fatalf("after %d Gets: limbo %d, freed %d of %d retired", ops, st.LimboDepth, st.Freed, st.Retired)
	}
	if c := e.a.Census(); c.Retired != 0 {
		t.Fatalf("census holds %d retired blocks", c.Retired)
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d Gets freed the %d blocks the burst retired", ops, st.Retired)
}

// buildTombstonedList returns an env with keys 1..200 inserted and
// 60..140 removed, so interior nodes are fully tombstoned. Online
// reclaim is off: the tests retire by hand.
func buildTombstonedList(t *testing.T) *env {
	t.Helper()
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
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
	return e
}

// reclaimCrash crashes op, run on a tombstoned list
// (buildTombstonedList) after prep, at each step of at. The recovered
// list must be fully consistent: invariants hold, no free block is off
// the free lists, removed keys stay removed, live keys stay live, no
// block is both linked and free, and a quiesced Compact leaves no
// retired block behind.
func reclaimCrash(t *testing.T, at []int64, prep func(t *testing.T, e *env), op func(e *env)) {
	var e *env
	crashstep.Run(t, crashstep.Scenario{
		At: at,
		Setup: func(t *testing.T) []*pmem.Pool {
			e = buildTombstonedList(t)
			prep(t, e)
			return []*pmem.Pool{e.pool}
		},
		Op:      func(t *testing.T) { op(e) },
		Recover: func(t *testing.T) { e = e.reopen(t) },
		Check:   func(t *testing.T, _ crashstep.Point) { checkTombstonedList(t, e, nil) },
	})
}

// checkTombstonedList checks a buildTombstonedList list recovered from
// a crash (reclaimCrash has the list of checks); the keys in removed
// were removed too.
func checkTombstonedList(t *testing.T, e *env, removed map[uint64]bool) {
	ctx := ctx0()
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatalf("post-crash invariants: %v", err)
	}
	// The intent log finished every free Open found interrupted,
	// and linked each block into one free list only.
	seen := map[riv.Ptr]bool{}
	e.a.ForEachFree(func(p riv.Ptr) {
		if seen[p] {
			t.Fatalf("free block %v is on two free lists", p)
		}
		seen[p] = true
	})
	if n := e.a.ReclaimOrphanChunks(ctx); n != 0 {
		t.Fatalf("%d free blocks on no free list", n)
	}
	for i := uint64(1); i <= 200; i++ {
		v, ok := e.sl.Get(ctx, i)
		dead := i >= 60 && i <= 140 || removed[i]
		if dead && ok {
			t.Fatalf("removed key %d resurrected after crash", i)
		}
		if !dead && (!ok || v != i) {
			t.Fatalf("live key %d lost after crash: %d,%v", i, v, ok)
		}
	}
	if _, err := e.sl.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if left := e.a.RetiredBlocks(); len(left) != 0 {
		t.Fatalf("%d retired blocks survive Compact", len(left))
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatalf("post-compact invariants: %v", err)
	}
	// Still fully operational.
	for i := uint64(80); i <= 120; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringRetirement sweeps a crash point through the retirement
// protocol (tombstone persist, intent log, kind flip, marks, unlink) and
// verifies the intent log makes every cut repairable at Open.
func TestCrashDuringRetirement(t *testing.T) {
	var victims []riv.Ptr
	reclaimCrash(t, crashstep.Range(1, 400, 7), func(t *testing.T, e *env) {
		if victims = emptyNodes(e.sl, ctx0()); len(victims) == 0 {
			t.Fatal("no tombstoned nodes to retire")
		}
	}, func(e *env) {
		for _, p := range victims {
			offer(e.sl, ctx0(), p)
		}
	})
}

// TestCrashDuringLimboFree retires nodes cleanly, then sweeps a crash
// point through the state-2 logged frees of the limbo blocks.
func TestCrashDuringLimboFree(t *testing.T) {
	reclaimCrash(t, crashstep.Range(1, 120, 3), func(t *testing.T, e *env) {
		for _, p := range emptyNodes(e.sl, ctx0()) {
			if !offer(e.sl, ctx0(), p) {
				t.Fatalf("retire of %v refused", p)
			}
		}
	}, func(e *env) {
		e.sl.PauseReclaim()
		e.sl.DrainQuiesced(ctx0())
		e.sl.ResumeReclaim()
	})
}

// TestCrashFreeingOnAnotherThread crashes, at every step, a Remove on
// thread 1 whose node it empties: its retire first frees a limbo batch
// whose grace has passed, into thread 1's arena. Recovery re-frees an
// interrupted free on thread 0, and must find the block already linked
// when the crash came after the link.
func TestCrashFreeingOnAnotherThread(t *testing.T) {
	var (
		e       *env
		last    uint64
		removed map[uint64]bool
	)
	n := crashstep.Run(t, crashstep.Scenario{
		From:  1,
		Floor: 100,
		Setup: func(t *testing.T) []*pmem.Pool {
			e = buildTombstonedList(t)
			ctx := ctx0()
			offer(e.sl, ctx, emptyNodes(e.sl, ctx)[0])
			e.sl.rc.limbo.Close(e.sl.dom)
			// Empty the node covering 160 down to its first key.
			tw := ctx.GetTowers(e.sl.maxHeight)
			e.sl.traverse(ctx, 160, tw.Preds, tw.Succs)
			vn := e.sl.node(tw.Preds[0])
			ctx.PutTowers(tw)
			last = vn.key0(e.sl, nil)
			removed = map[uint64]bool{last: true}
			for i := 1; i < e.sl.keysPerNode; i++ {
				if k := vn.key(e.sl, i, nil); k != keyEmpty {
					removed[k] = true
					if _, _, err := e.sl.Remove(ctx, k); err != nil {
						t.Fatal(err)
					}
				}
			}
			e.sl.SetOnlineReclaim(true)
			return []*pmem.Pool{e.pool}
		},
		Op: func(t *testing.T) {
			if _, _, err := e.sl.Remove(exec.NewCtx(1, 0), last); err != nil {
				t.Fatal(err)
			}
			if st := e.sl.ReclaimStats(); st.Freed != 1 || st.Retired != 2 {
				t.Fatalf("the Remove freed %d blocks and retired %d nodes; want 1 and 2", st.Freed, st.Retired)
			}
		},
		Recover: func(t *testing.T) { e = e.reopen(t) },
		Check: func(t *testing.T, _ crashstep.Point) {
			// The Remove may have completed; removing again is a no-op.
			if _, _, err := e.sl.Remove(ctx0(), last); err != nil {
				t.Fatal(err)
			}
			checkTombstonedList(t, e, removed)
		},
	})
	t.Logf("crashed the Remove, which frees on thread 1, at each of its %d steps", n-1)
}

// TestLimboRediscoveryAfterRestart loses the volatile limbo across a
// restart and checks that the first retire after Open collects the
// orphaned retired blocks without any grace period.
func TestLimboRediscoveryAfterRestart(t *testing.T) {
	e := buildTombstonedList(t)
	ctx := ctx0()
	victims := emptyNodes(e.sl, ctx)
	retired := 0
	for _, p := range victims {
		if offer(e.sl, ctx, p) {
			retired++
		}
	}
	if retired == 0 {
		t.Fatal("nothing retired")
	}
	e2 := e.reopen(t) // the limbo dies with the handle
	orphans := e2.a.RetiredBlocks()
	if len(orphans) != retired {
		t.Fatalf("found %d orphaned retired blocks, retired %d", len(orphans), retired)
	}
	// A worker op empties a node: its retire is the list's first.
	e2.sl.SetOnlineReclaim(true)
	for i := uint64(1); i < 60; i++ {
		if _, _, err := e2.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	st := e2.sl.ReclaimStats()
	if st.Rediscovered != int64(retired) {
		t.Fatalf("rediscovered %d blocks, retired %d before the restart", st.Rediscovered, retired)
	}
	if st.Retired == 0 {
		t.Fatal("no retire after the restart")
	}
	if left := e2.a.RetiredBlocks(); int64(len(left)) != st.LimboDepth {
		t.Fatalf("%d retired blocks, %d of them in this handle's limbo: the rest were not rediscovered", len(left), st.LimboDepth)
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
	if !offer(e.sl, ctx, victim) {
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
		offer(e.sl, ctx, p)
	}
	e.sl.PauseReclaim()
	if n := e.sl.DrainQuiesced(ctx); n == 0 {
		t.Fatal("nothing drained — cursor node was not recycled")
	}
	e.sl.ResumeReclaim()
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

// TestRetireAtEveryStepOfAWrite lets another worker retire the covering
// node — fully tombstoned, so a legitimate victim — between any two pool
// accesses of a write into that node's range: reviving a tombstoned key,
// claiming a fresh slot, with the traversal seeded from a hint or not.
// Wherever the retirement lands, the write must either keep the node
// alive (the retire is refused) or land in a node that is still part of
// the list. A traversal that adopted the victim after checking its kind
// but before reading its split count used to pass every later check and
// put the key into the unlinked block, where it was lost.
func TestRetireAtEveryStepOfAWrite(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 8, KeysPerNode: 4}, chunks: 4}
	for _, tc := range []struct {
		name  string
		key   uint64 // written while the victim [100, 140) is retired
		hints bool
	}{
		{"revive", 120, false}, {"claim", 125, false},
		{"revive seeded", 120, true}, {"claim seeded", 125, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				ctx         *exec.Ctx
				victim      riv.Ptr
				retired     bool
				err         error
				retiredRuns int
			)
			n := crashstep.Run(t, crashstep.Scenario{
				From: 1,
				Setup: func(t *testing.T) []*pmem.Pool {
					pools := e.setup(t)
					e.sl.SetTuning(Tuning{NoHints: !tc.hints})
					ctx, retired = ctx0(), false
					for k := uint64(10); k <= 300; k += 10 {
						if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
							t.Fatal(err)
						}
					}
					// The victim: the node covering 120, emptied key by key. The
					// Get leaves it in the hint cache when hints are on.
					e.sl.Get(ctx, tc.key)
					t0 := ctx.GetTowers(e.cfg.MaxHeight)
					e.sl.traverse(ctx, 120, t0.Preds, t0.Succs)
					victim = t0.Preds[0]
					ctx.PutTowers(t0)
					vn := e.sl.node(victim)
					for i := 0; i < e.cfg.KeysPerNode; i++ {
						if k := vn.key(e.sl, i, ctx.Mem); k != keyEmpty {
							if _, _, err := e.sl.Remove(ctx, k); err != nil {
								t.Fatal(err)
							}
						}
					}
					if victim == e.sl.head || !e.sl.nodeFullyTombstoned(ctx, vn) {
						t.Fatal("no emptied covering node to retire")
					}
					return pools
				},
				Hook: func() { retired = offer(e.sl, exec.NewCtx(9, 0), victim) },
				Op:   func(t *testing.T) { _, _, err = e.sl.Insert(ctx, tc.key, 777) },
				Check: func(t *testing.T, p crashstep.Point) {
					if err != nil {
						t.Fatalf("step %d: %v", p.Step, err)
					}
					if v, ok := e.sl.Get(ctx, tc.key); !ok || v != 777 {
						t.Fatalf("step %d (node retired mid-write: %v): Get(%d) = (%d,%v) after a successful Insert; %s",
							p.Step, retired, tc.key, v, ok, e.sl.DescribeKey(ctx, tc.key))
					}
					if err := e.sl.CheckInvariants(ctx); err != nil {
						t.Fatalf("step %d: %v", p.Step, err)
					}
					if retired {
						retiredRuns++
					}
				},
			})
			if retiredRuns == 0 {
				t.Fatal("the victim was never retired mid-write")
			}
			t.Logf("retired the covering node at each of %d steps of the write (%d retirements went through)", n-1, retiredRuns)
		})
	}
}

// heldChecker is an injector that fails the test when the list's retire
// queue mutex is held at a pool access. Another goroutine may hold it
// for a moment (an append or a swap), so a failed TryLock is retried; a
// mutex held by the accessing goroutine itself, or across anything that
// waits on a pool access, is still held a second later.
type heldChecker struct {
	t      testing.TB
	sl     *SkipList
	failed atomic.Bool
}

func (h *heldChecker) Step() {
	if h.failed.Load() {
		return
	}
	mu := &h.sl.rc.qmu
	for deadline := time.Now().Add(time.Second); !mu.TryLock(); runtime.Gosched() {
		if time.Now().After(deadline) {
			if h.failed.CompareAndSwap(false, true) {
				h.t.Errorf("the retire queue's mutex is held across a pool access")
			}
			return
		}
	}
	mu.Unlock()
}

// TestReclaimerLockNeverHeldAcrossPoolAccess: every pool access made
// while workers retire inline — the first retire's collection scan,
// retires and frees, a writer running meanwhile, work done between
// PauseReclaim and ResumeReclaim, and a quiesced drain — happens with
// the retire queue's mutex free, so it guards only the queue. (The
// limbo's own lock is pinned the same way by epoch's
// TestLimboFreesOutsideItsLock.)
func TestReclaimerLockNeverHeldAcrossPoolAccess(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 4})
	h := &heldChecker{t: t, sl: e.sl}
	e.pool.SetInjector(h)
	defer e.pool.SetInjector(nil)
	ctx := ctx0()
	for i := uint64(1); i <= 2000; i++ {
		if _, _, err := e.sl.Insert(ctx, i, i); err != nil {
			t.Fatal(err)
		}
	}
	e.sl.SetOnlineReclaim(true)

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
			k := 10000 + i%200
			if _, _, err := e.sl.Insert(wctx, k, k); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				if _, _, err := e.sl.Remove(wctx, k); err != nil {
					t.Error(err)
					return
				}
			}
			e.sl.Get(wctx, 10000+(i*7)%200)
		}
	}()
	for i := uint64(100); i <= 1800; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if freed := e.sl.ReclaimStats().Freed; freed <= 20 {
		t.Fatalf("online reclaim freed %d blocks, want > 20", freed)
	}
	for i := 0; i < 20; i++ {
		e.sl.PauseReclaim()
		e.sl.Get(ctx, uint64(i+1))
		e.sl.Remove(ctx, uint64(1801+i))
		e.sl.ResumeReclaim()
	}
	close(stop)
	wg.Wait()

	retired := e.sl.ReclaimStats().Retired
	for i := uint64(1821); i <= 1900; i++ {
		if _, _, err := e.sl.Remove(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if e.sl.ReclaimStats().Retired <= retired {
		t.Fatal("no retirement after the writer stopped")
	}
	e.sl.PauseReclaim()
	e.sl.DrainQuiesced(ctx)
	e.sl.ResumeReclaim()
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// towerLinker is the other worker of TestRetireFlipThenTowerLink: the
// first time it sees the victim flipped to KindRetired with no
// retirement mark yet, it inserts key — in a goroutine, so that a linker
// spinning on the victim turns the test red instead of hanging it.
type towerLinker struct {
	t       *testing.T
	sl      *SkipList
	victim  nodeRef
	key     uint64
	done    bool
	through bool // the insert linked its tower behind the victim
}

func (l *towerLinker) run() {
	if l.done || l.victim.kind(nil) != alloc.KindRetired || l.victim.nextWord(0, nil)&nextMark != 0 {
		return
	}
	l.done = true
	finished := make(chan error, 1)
	go func() {
		_, _, err := l.sl.Insert(exec.NewCtx(5, 0), l.key, l.key)
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			l.t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		l.t.Fatalf("insert of %d did not finish while the victim was flipped but unmarked", l.key)
	}
	for lv := 1; lv < l.victim.height(nil); lv++ {
		if n := l.victim.next(l.sl, lv, nil); n != l.sl.tail && l.sl.node(n).key0(l.sl, nil) == l.key {
			l.through = true
		}
	}
}

// TestRetireFlipThenTowerLink is the first proof obligation of the hop
// rule: a node flipped to KindRetired but not yet marked is still a link
// predecessor like any live node. A retire is crashed at every step;
// when it reaches the window between its kind flip and its marks,
// another worker first inserts a key whose tower links behind the
// victim. The insert must finish, and after the crash and Reopen the
// list must pass its invariants with every acknowledged key present.
func TestRetireFlipThenTowerLink(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 8, KeysPerNode: 1}, chunks: 4}
	var (
		lk       *towerLinker
		victim   riv.Ptr
		vKey     uint64
		key      uint64
		throughs int
	)
	crashstep.Run(t, crashstep.Scenario{
		From: 1,
		Setup: func(t *testing.T) []*pmem.Pool {
			pools := e.setup(t)
			e.sl.SetTuning(Tuning{TowerBranch: 2})
			ctx := ctx0()
			for k := uint64(10); k <= 600; k += 10 {
				if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
					t.Fatal(err)
				}
			}
			// The victim: a tall node whose bottom successor s is short,
			// with nothing between it and key s+1 at level 1. The inserting
			// context draws a tall tower first.
			victim = riv.Null
			for p := e.sl.node(e.sl.head).next(e.sl, 0, nil); p != e.sl.tail; p = e.sl.node(p).next(e.sl, 0, nil) {
				v := e.sl.node(p)
				s := e.sl.node(v.next(e.sl, 0, nil))
				if v.height(nil) < 2 || s.ptr == e.sl.tail || s.height(nil) != 1 {
					continue
				}
				if up := v.next(e.sl, 1, nil); up != e.sl.tail && e.sl.node(up).key0(e.sl, nil) <= s.key0(e.sl, nil)+1 {
					continue
				}
				victim, vKey, key = p, v.key0(e.sl, nil), s.key0(e.sl, nil)+1
				break
			}
			if victim.IsNull() {
				t.Fatal("no tall node with a short successor")
			}
			if h := exec.NewCtx(5, 0).GeometricHeightB(e.cfg.MaxHeight, 2); h < 2 {
				t.Fatalf("the inserting context draws height %d", h)
			}
			if _, _, err := e.sl.Remove(ctx, vKey); err != nil {
				t.Fatal(err)
			}
			lk = &towerLinker{t: t, sl: e.sl, victim: e.sl.node(victim), key: key}
			return pools
		},
		Arm:     func(inj pmem.Injector) { (&interleaved{fn: lk.run}).arm(e.pool, inj) },
		Op:      func(t *testing.T) { offer(e.sl, ctx0(), victim) },
		Recover: e.restart,
		Check: func(t *testing.T, p crashstep.Point) {
			ctx := ctx0()
			if err := e.sl.CheckInvariants(ctx); err != nil {
				t.Fatalf("step %d (inserted behind the victim: %v): %v", p.Step, lk.done, err)
			}
			for k := uint64(10); k <= 600; k += 10 {
				if v, ok := e.sl.Get(ctx, k); k != vKey && (!ok || v != k) {
					t.Fatalf("step %d: key %d lost: %d,%v", p.Step, k, v, ok)
				}
			}
			if lk.done {
				if v, ok := e.sl.Get(ctx, key); !ok || v != key {
					t.Fatalf("step %d: acknowledged key %d, linked behind the victim, lost: %d,%v", p.Step, key, v, ok)
				}
			}
			if lk.through {
				throughs++
			}
		},
	})
	if throughs == 0 {
		t.Fatal("no insert linked its tower behind the flipped victim")
	}
	t.Logf("the insert linked behind the flipped victim before %d of the crashes", throughs)
}

// TestRemoveRetiresInlineAtEveryStep is the second: a Remove that
// empties its node retires it inline, and a crash at every step of it
// recovers. The Remove is then completed, as a client retrying it
// would, and Compact settles the limbo, so the census must equal that
// of a twin whose Remove never crashed.
func TestRemoveRetiresInlineAtEveryStep(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 8, KeysPerNode: 4}, chunks: 4}
	var (
		last    uint64
		removed map[uint64]bool
	)
	setup := func(t *testing.T) []*pmem.Pool {
		pools := e.setup(t)
		ctx := ctx0()
		for k := uint64(1); k <= 200; k++ {
			if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
				t.Fatal(err)
			}
		}
		// Empty the node covering 100 down to its last key.
		t0 := ctx.GetTowers(e.cfg.MaxHeight)
		e.sl.traverse(ctx, 100, t0.Preds, t0.Succs)
		vn := e.sl.node(t0.Preds[0])
		ctx.PutTowers(t0)
		var keys []uint64
		for i := 0; i < e.cfg.KeysPerNode; i++ {
			if k := vn.key(e.sl, i, nil); k != keyEmpty {
				keys = append(keys, k)
			}
		}
		for _, k := range keys[1:] {
			if _, _, err := e.sl.Remove(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		last = keys[0]
		removed = map[uint64]bool{}
		for _, k := range keys {
			removed[k] = true
		}
		e.sl.SetOnlineReclaim(true)
		return pools
	}
	remove := func(t *testing.T) {
		if _, ok, err := e.sl.Remove(ctx0(), last); err != nil || !ok {
			t.Fatalf("Remove(%d) = %v, %v", last, ok, err)
		}
	}
	n := crashstep.Run(t, crashstep.Scenario{
		From:  1,
		Floor: 20,
		Setup: setup,
		Op: func(t *testing.T) {
			before := e.sl.ReclaimStats().Retired
			remove(t)
			if e.sl.ReclaimStats().Retired == before {
				t.Fatal("the Remove that emptied its node did not retire it")
			}
		},
		Twin: func(t *testing.T) {
			setup(t)
			remove(t)
		},
		Recover: func(t *testing.T) {
			e.restart(t)
			e.sl.SetOnlineReclaim(true)
		},
		Check: func(t *testing.T, p crashstep.Point) {
			ctx := ctx0()
			if err := e.sl.CheckInvariants(ctx); err != nil {
				t.Fatalf("step %d: %v", p.Step, err)
			}
			if _, ok := e.sl.Get(ctx, last); ok && !p.Fired {
				t.Fatalf("key %d present after its Remove returned", last)
			}
			if _, _, err := e.sl.Remove(ctx, last); err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 200; k++ {
				if v, ok := e.sl.Get(ctx, k); ok == removed[k] || (ok && v != k) {
					t.Fatalf("step %d: Get(%d) = %d,%v; removed: %v", p.Step, k, v, ok, removed[k])
				}
			}
		},
		Census: func(t *testing.T) any {
			if _, err := e.sl.Compact(ctx0()); err != nil {
				t.Fatal(err)
			}
			return e.a.Census()
		},
	})
	t.Logf("crashed the Remove and its inline retire at each of its %d steps", n-1)
}

// TestCrashWithQueueAndLimbo is the third: a crash while candidates sit
// on the retire queue and retired nodes in the limbo. Both are volatile
// and die with the handle; the limbo's blocks stay KindRetired,
// unlinked, in the pools. After Reopen the first retire frees them, and
// once the new handle's own limbo is drained the census holds no
// retired block.
func TestCrashWithQueueAndLimbo(t *testing.T) {
	e := &crashList{cfg: Config{MaxHeight: 8, KeysPerNode: 4}, chunks: 4}
	var limbo int64
	crashstep.Run(t, crashstep.Scenario{
		Setup: func(t *testing.T) []*pmem.Pool {
			pools := e.setup(t)
			ctx := ctx0()
			for k := uint64(1); k <= 400; k++ {
				if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
					t.Fatal(err)
				}
			}
			return pools
		},
		Op: func(t *testing.T) {
			ctx := ctx0()
			e.sl.SetOnlineReclaim(true)
			for k := uint64(1); k <= 200; k++ {
				if _, _, err := e.sl.Remove(ctx, k); err != nil {
					t.Fatal(err)
				}
			}
			e.sl.PauseReclaim()
			for k := uint64(201); k <= 300; k++ {
				if _, _, err := e.sl.Remove(ctx, k); err != nil {
					t.Fatal(err)
				}
			}
			limbo = e.sl.ReclaimStats().LimboDepth
			if limbo == 0 || e.sl.rc.queued.Load() == 0 {
				t.Fatalf("limbo %d, queue %d: want both non-empty at the crash", limbo, e.sl.rc.queued.Load())
			}
		},
		Recover: e.restart,
		Check: func(t *testing.T, _ crashstep.Point) {
			ctx := ctx0()
			if got := len(e.a.RetiredBlocks()); int64(got) != limbo {
				t.Fatalf("%d retired blocks after Reopen, %d were in the limbo", got, limbo)
			}
			e.sl.SetOnlineReclaim(true)
			for k := uint64(301); k <= 320; k++ {
				if _, _, err := e.sl.Remove(ctx, k); err != nil {
					t.Fatal(err)
				}
			}
			st := e.sl.ReclaimStats()
			if st.Retired == 0 || st.Rediscovered != limbo {
				t.Fatalf("after Reopen: retired %d, rediscovered %d of the %d pre-crash limbo blocks", st.Retired, st.Rediscovered, limbo)
			}
			if c := e.a.Census(); int64(c.Retired) != st.LimboDepth {
				t.Fatalf("census holds %d retired blocks, this handle's limbo %d", c.Retired, st.LimboDepth)
			}
			e.sl.PauseReclaim()
			e.sl.DrainQuiesced(ctx)
			e.sl.ResumeReclaim()
			if c := e.a.Census(); c.Retired != 0 {
				t.Fatalf("census holds %d retired blocks after the drain", c.Retired)
			}
			if err := e.sl.CheckInvariants(ctx); err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 400; k++ {
				if _, ok := e.sl.Get(ctx, k); ok != (k > 320) {
					t.Fatalf("Get(%d) present %v", k, ok)
				}
			}
		},
	})
}

// TestRetireRefusesUnlinkedBlock: a candidate can wait on the retire
// queue while its block is freed and handed out again. A block just
// allocated for a node that is not yet published reads as an empty,
// unlocked node; retire must refuse it, since only a node linked at the
// bottom level is a candidate, and the owner's initialization must find
// it untouched.
func TestRetireRefusesUnlinkedBlock(t *testing.T) {
	e := newEnv(t, Config{MaxHeight: 8, KeysPerNode: 4})
	ctx := ctx0()
	for k := uint64(1); k <= 40; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := e.a.Alloc(exec.NewCtx(3, 0), riv.Null, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := e.sl.ReclaimStats().Retired
	if offer(e.sl, ctx, fresh) {
		t.Fatal("retired a block no node links to")
	}
	n := e.sl.node(fresh)
	if k, sc := n.kind(nil), n.splitCount(nil); k != alloc.KindNode || sc == splitRetired || n.isWriteLocked(nil) {
		t.Fatalf("unpublished block touched: kind %d, split count %#x", k, sc)
	}
	if got := e.sl.ReclaimStats().Retired; got != before {
		t.Fatalf("retired count moved from %d to %d", before, got)
	}
}
