package upskiplist

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"upskiplist/internal/alloc"
	"upskiplist/internal/crashstep"
	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

// recoveryTestOptions is a small sharded geometry: enough shards for the
// recovery fan-out to matter and enough chunks per pool for the sweeps
// to have many pages.
func recoveryTestOptions(shards int) Options {
	o := testOptions()
	o.Shards = shards
	o.ChunkWords = 1 << 10
	o.MaxChunks = 512
	return o
}

// fillRecoveryStore writes a deterministic mixed workload: inline 8-byte
// values, slab-resident 100-byte values, and a band of deletes so the
// sweeps have retired blocks and dead slab chunks to find.
func fillRecoveryStore(t *testing.T, st *Store, n uint64) {
	t.Helper()
	w := st.NewWorker(0)
	big := make([]byte, 100)
	for i := uint64(0); i < n; i++ {
		k := KeyMin + i
		if i%3 == 0 {
			for j := range big {
				big[j] = byte(k + uint64(j))
			}
			if _, _, err := w.Put(k, big); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := w.PutU64(k, k*31); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i += 7 {
		if _, _, err := w.Remove(KeyMin + i); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRecoveryReadback verifies the full logical state fillRecoveryStore
// left behind.
func checkRecoveryReadback(t *testing.T, st *Store, n uint64) {
	t.Helper()
	w := st.NewWorker(0)
	for i := uint64(0); i < n; i++ {
		k := KeyMin + i
		v, ok := w.Get(k)
		if i%7 == 0 {
			if ok {
				t.Fatalf("deleted key %#x present", k)
			}
			continue
		}
		if !ok {
			t.Fatalf("key %#x missing", k)
		}
		if i%3 == 0 {
			if len(v) != 100 || v[0] != byte(k) || v[99] != byte(k+99) {
				t.Fatalf("key %#x bad slab value", k)
			}
		} else if len(v) != 8 {
			t.Fatalf("key %#x bad inline value", k)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryIndependentOfCores builds the same crashed store under
// GOMAXPROCS 1, 2 and 4, at 1 and 4 shards, and demands bit-identical
// recoveries from Reopen and from Load of a Save image: every pool's
// pmem counter delta, the block census, the sweep counters and the
// contents. Shards may recover side by side, but each shard's recovery
// is one serial pass, so what it charges cannot depend on the host.
// CI also runs it under -race.
func TestRecoveryIndependentOfCores(t *testing.T) {
	const n = 4000
	type result struct {
		mem             []pmem.StatsSnapshot
		census          alloc.BlockCensus
		swept, relinked uint64
	}
	recovered := func(st *Store, before []pmem.StatsSnapshot) result {
		rec := st.RecoveryStats()
		r := result{swept: rec.PagesSwept, relinked: rec.ChunksRelinked}
		for i, p := range st.Pools() {
			d := p.Stats().Snapshot()
			if before != nil {
				b := before[i]
				d = pmem.StatsSnapshot{Loads: d.Loads - b.Loads, Stores: d.Stores - b.Stores, CASes: d.CASes - b.CASes,
					Flushes: d.Flushes - b.Flushes, Fences: d.Fences - b.Fences, RemoteOps: d.RemoteOps - b.RemoteOps,
					Misses: d.Misses - b.Misses, Prefetches: d.Prefetches - b.Prefetches}
			}
			r.mem = append(r.mem, d)
		}
		r.census = st.BlockCensus()
		checkRecoveryReadback(t, st, n)
		return r
	}
	for _, shards := range []int{1, 4} {
		var want map[string]result
		for _, procs := range []int{1, 2, 4} {
			got := func() map[string]result {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				o := recoveryTestOptions(shards)
				o.Cost = pmem.DefaultCostModel()
				o.PoolWords = 1 << 19 // Save and Load copy whole pools; the data needs a fraction
				st, err := Create(o)
				if err != nil {
					t.Fatal(err)
				}
				fillRecoveryStore(t, st, n)
				st.EnableCrashTracking()
				st.SimulateCrash()
				dir := t.TempDir()
				if err := st.Save(dir); err != nil {
					t.Fatal(err)
				}
				var before []pmem.StatsSnapshot
				for _, p := range st.Pools() {
					before = append(before, p.Stats().Snapshot())
				}
				re, err := st.Reopen()
				if err != nil {
					t.Fatal(err)
				}
				ld, err := LoadWithConfig(dir, LoadConfig{Cost: o.Cost})
				if err != nil {
					t.Fatal(err)
				}
				return map[string]result{"reopen": recovered(re, before), "load": recovered(ld, nil)}
			}()
			if want == nil {
				want = got
				continue
			}
			for path, w := range want {
				g := got[path]
				for i := range w.mem {
					if g.mem[i] != w.mem[i] {
						t.Errorf("%d shards, %s, pool %d: GOMAXPROCS=%d charged %v (misses %d), GOMAXPROCS=1 %v (misses %d)",
							shards, path, i, procs, g.mem[i], g.mem[i].Misses, w.mem[i], w.mem[i].Misses)
					}
				}
				if g.census != w.census || g.swept != w.swept || g.relinked != w.relinked {
					t.Errorf("%d shards, %s: GOMAXPROCS=%d census %+v swept %d relinked %d, GOMAXPROCS=1 %+v %d %d",
						shards, path, procs, g.census, g.swept, g.relinked, w.census, w.swept, w.relinked)
				}
			}
		}
	}
}

// TestRecoveryCrashDuringReopen crashes recovery itself at every 250th
// pool access it makes: each interrupted Reopen must surface as
// ErrRecoveryInterrupted, and after the crash a clean Reopen must reach
// the exact state a never-interrupted recovery of a twin store produces.
// Shards recover one after another at GOMAXPROCS 1, so a step lands in
// the same shard on every run.
func TestRecoveryCrashDuringReopen(t *testing.T) {
	const n = 2000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := &crashStore{}
	build := func(t *testing.T) []*pmem.Pool {
		pools := c.create(t, recoveryTestOptions(4))
		fillRecoveryStore(t, c.Store, n)
		return pools
	}
	var err error // what the armed Reopen returned
	last := crashstep.Run(t, crashstep.Scenario{
		// A clean reopen of this store makes 1 953 pool accesses: ~64 per
		// shard to attach and open, ~424 per shard to sweep. The crashed
		// one makes 2 000-2 249 (7 000-7 249 with Floor 5 000 while the
		// sweep hashed its refs and loaded every key word by word).
		From: 250, Stride: 250, Floor: 2000, // past attach, into the sweeps
		Setup:   build,
		Op:      func(t *testing.T) { _, err = c.Reopen() },
		Twin:    func(t *testing.T) { build(t) },
		Recover: c.restart,
		Check: func(t *testing.T, p crashstep.Point) {
			if p.Fired && !errors.Is(err, ErrRecoveryInterrupted) || !p.Fired && err != nil {
				t.Fatalf("interrupted reopen (fired: %v): err = %v", p.Fired, err)
			}
			checkRecoveryReadback(t, c.Store, n)
		},
		Census: func(t *testing.T) any { return c.BlockCensus() },
	})
	t.Logf("crashed the reopen at every 250th of its %d to %d pool accesses", last-250, last-1)
}

// TestRecoveryCrashDuringLoad interrupts both dump loaders — the
// physical pool-image path and the sorted-pairs bulk build — and checks
// the error type plus a clean retry from the same on-disk images.
func TestRecoveryCrashDuringLoad(t *testing.T) {
	const n = 1500
	st, err := Create(recoveryTestOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	fillRecoveryStore(t, st, n)

	physDir, pairsDir := t.TempDir(), t.TempDir()
	if err := st.Save(physDir); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveOnline(pairsDir); err != nil {
		t.Fatal(err)
	}

	// A clean phys load makes 1 516 pool accesses, 4 x ~60 to attach and
	// open and 4 x 319 to sweep, so step 1 250 lands in a sweep whether
	// the shards load one after another or two at a time (5 000 of 5 272
	// while the sweep loaded every key word by word).
	for _, tc := range []struct {
		name string
		dir  string
		at   int64
	}{{"phys", physDir, 1250}, {"bulk", pairsDir, 5000}} {
		t.Run(tc.name, func(t *testing.T) {
			// The loader builds its pools inside the call, so the crash
			// rides its config.
			var inj pmem.Injector
			crashstep.Run(t, crashstep.Scenario{
				At:    []int64{tc.at},
				Setup: func(t *testing.T) []*pmem.Pool { return nil },
				Arm:   func(i pmem.Injector) { inj = i },
				Op: func(t *testing.T) {
					if _, err = LoadWithConfig(tc.dir, LoadConfig{Injector: inj}); !errors.Is(err, ErrRecoveryInterrupted) {
						t.Fatalf("interrupted load: err = %v", err)
					}
				},
				Recover: func(t *testing.T) {
					if st, err = Load(tc.dir); err != nil {
						t.Fatalf("clean retry: %v", err)
					}
				},
				Check: func(t *testing.T, _ crashstep.Point) { checkRecoveryReadback(t, st, n) },
			})
		})
	}
}

// TestBulkLoadRestoresDump loads the same sorted v4 dump through the
// bottom-up bulk builder under GOMAXPROCS 1 and 2, across dense and
// sparse tower geometries, and demands from every combination the logical
// contents the dumped store held.
func TestBulkLoadRestoresDump(t *testing.T) {
	const n = 1500
	for _, branch := range []int{0, 8} {
		t.Run(fmt.Sprintf("branch=%d", branch), func(t *testing.T) {
			st, err := Create(recoveryTestOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			st.SetTuning(skiplist.Tuning{TowerBranch: branch})
			fillRecoveryStore(t, st, n)
			dir := t.TempDir()
			if err := st.SaveOnline(dir); err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				ld, err := Load(dir)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("load at GOMAXPROCS=%d: %v", procs, err)
				}
				if rec := ld.RecoveryStats(); rec.KeysBulkLoaded == 0 || rec.NodesBulkBuilt == 0 {
					t.Fatalf("bulk build not recorded: %+v", rec)
				}
				checkRecoveryReadback(t, ld, n)

				// Scan equivalence: every live pair, in order.
				w := ld.NewWorker(0)
				next := uint64(0)
				w.Scan(KeyMin, KeyMin+n-1, func(k uint64, v []byte) bool {
					for next < n && next%7 == 0 {
						next++ // deleted band
					}
					if k != KeyMin+next {
						t.Fatalf("scan out of sequence: got %#x want %#x", k, KeyMin+next)
					}
					next++
					return true
				})
			}
		})
	}
}

// TestRecoveryLoadsPinned pins the pool loads a clean Reopen of a fixed
// one-shard slab store charges: attach, open and a sweep whose live walk
// bulk-loads each node's key and value blocks. The count moves only when
// recovery's access sequence does (6 842 while the walk loaded every key
// and value word on its own, 2 842 while Open read the root's flags word).
func TestRecoveryLoadsPinned(t *testing.T) {
	const want = 2841
	st, err := Create(recoveryTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	fillRecoveryStore(t, st, 2000)
	var before uint64
	for _, p := range st.Pools() {
		before += p.Stats().Snapshot().Loads
	}
	re, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	var loads uint64
	for _, p := range re.Pools() {
		loads += p.Stats().Snapshot().Loads
	}
	if loads -= before; loads != want || re.RecoveryStats().PagesSwept == 0 {
		t.Fatalf("reopen charged %d loads over %d pages, want %d", loads, re.RecoveryStats().PagesSwept, want)
	}
}
