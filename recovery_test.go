package upskiplist

import (
	"errors"
	"fmt"
	"testing"

	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

// recoveryTestOptions is a small sharded geometry: enough shards for the
// recovery fan-out to matter and enough chunks per pool for the
// page-parallel sweeps to have several pages per worker.
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

// TestRecoveryParallelMatchesSerial reopens two identically built stores
// with a serial and an 8-way recovery and demands the same block census,
// the same sweep work counters, and the same logical contents. This is
// the free-list-merge correctness check; CI also runs it under -race to
// catch unsynchronized accumulator sharing.
func TestRecoveryParallelMatchesSerial(t *testing.T) {
	const n = 2000
	build := func(par int) *Store {
		o := recoveryTestOptions(4)
		o.RecoveryParallelism = par
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		fillRecoveryStore(t, st, n)
		st.EnableCrashTracking()
		st.SimulateCrash()
		re, err := st.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	serial, parallel := build(1), build(8)
	cs, cp := serial.BlockCensus(), parallel.BlockCensus()
	if cs != cp {
		t.Fatalf("census diverged: serial %+v parallel %+v", cs, cp)
	}
	rs, rp := serial.RecoveryStats(), parallel.RecoveryStats()
	if rs.PagesSwept != rp.PagesSwept || rs.ChunksRelinked != rp.ChunksRelinked {
		t.Fatalf("sweep counters diverged: serial %+v parallel %+v", rs, rp)
	}
	if rp.Parallelism != 8 || rs.Parallelism != 1 {
		t.Fatalf("parallelism not recorded: %d / %d", rs.Parallelism, rp.Parallelism)
	}
	checkRecoveryReadback(t, serial, n)
	checkRecoveryReadback(t, parallel, n)
}

// TestRecoveryCrashDuringReopen kills recovery mid-sweep with a
// countdown injector, checks the interruption surfaces as
// ErrRecoveryInterrupted, then re-runs recovery and demands the exact
// state a never-interrupted recovery of a twin store produces.
func TestRecoveryCrashDuringReopen(t *testing.T) {
	const n = 2000
	build := func() *Store {
		o := recoveryTestOptions(4)
		o.RecoveryParallelism = 4
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		fillRecoveryStore(t, st, n)
		return st
	}
	crashed, control := build(), build()

	// Arm a crash a few thousand pool accesses into recovery — well past
	// attach, inside the sweep phase for this geometry.
	ci := pmem.NewCountdownInjector(5000)
	for _, p := range crashed.Pools() {
		p.SetInjector(ci)
	}
	if _, err := crashed.Reopen(); !errors.Is(err, ErrRecoveryInterrupted) {
		t.Fatalf("interrupted reopen: err = %v", err)
	}
	if !ci.Tripped() {
		t.Fatal("injector never fired")
	}
	for _, p := range crashed.Pools() {
		p.SetInjector(nil)
	}
	re, err := crashed.Reopen()
	if err != nil {
		t.Fatalf("re-recovery: %v", err)
	}
	want, errc := control.Reopen()
	if errc != nil {
		t.Fatal(errc)
	}
	if re.BlockCensus() != want.BlockCensus() {
		t.Fatalf("census after interrupted recovery %+v != clean recovery %+v",
			re.BlockCensus(), want.BlockCensus())
	}
	checkRecoveryReadback(t, re, n)
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

	for _, tc := range []struct {
		name string
		dir  string
	}{{"phys", physDir}, {"bulk", pairsDir}} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadWithConfig(tc.dir, LoadConfig{
				RecoveryParallelism: 4,
				Injector:            pmem.NewCountdownInjector(5000),
			})
			if !errors.Is(err, ErrRecoveryInterrupted) {
				t.Fatalf("interrupted load: err = %v", err)
			}
			re, err := LoadWithConfig(tc.dir, LoadConfig{RecoveryParallelism: 4})
			if err != nil {
				t.Fatalf("clean retry: %v", err)
			}
			checkRecoveryReadback(t, re, n)
		})
	}
}

// TestBulkLoadRestoresDump loads the same sorted v4 dump through the
// bottom-up bulk builder, serial and parallel, across dense and sparse
// tower geometries, and demands from every combination the logical
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
			for _, cfg := range []LoadConfig{
				{RecoveryParallelism: 1},
				{RecoveryParallelism: 8},
			} {
				ld, err := LoadWithConfig(dir, cfg)
				if err != nil {
					t.Fatalf("load %+v: %v", cfg, err)
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
