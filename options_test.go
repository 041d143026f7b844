package upskiplist

import (
	"errors"
	"testing"

	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

// Geometry validation: node parameters that cannot be packed into the
// meta word (16-bit sorted prefix, 8-bit height) must be rejected at
// Create with the typed ErrBadGeometry, not discovered as corruption
// later.
func TestOptionsGeometryValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"MaxHeightTooTall", func(o *Options) { o.MaxHeight = skiplist.MaxHeight + 1 }},
		{"MaxHeightNegative", func(o *Options) { o.MaxHeight = -1 }},
		{"KeysPerNodeOverflowsMeta", func(o *Options) { o.KeysPerNode = skiplist.MaxKeysPerNode + 1 }},
		{"KeysPerNodeNegative", func(o *Options) { o.KeysPerNode = -4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions()
			tc.mutate(&o)
			st, err := Create(o)
			if err == nil {
				t.Fatal("Create accepted unpackable geometry")
			}
			if !errors.Is(err, ErrBadGeometry) {
				t.Fatalf("error %v is not ErrBadGeometry", err)
			}
			_ = st
		})
	}
}

// Boundary values that DO pack must be accepted, and every tower bias
// the tuning seam can produce — the default and both ends of its range —
// must build a sound structure.
func TestOptionsGeometryBoundaries(t *testing.T) {
	for _, tb := range []int{0, 2, 64} {
		st, err := Create(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		st.SetTuning(skiplist.Tuning{TowerBranch: tb})
		w := st.NewWorker(0)
		for k := uint64(1); k <= 500; k++ {
			if _, _, err := w.PutU64(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.Count(); got != 500 {
			t.Fatalf("TowerBranch=%d: count %d, want 500", tb, got)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("TowerBranch=%d invariants: %v", tb, err)
		}
	}
	o := testOptions()
	o.MaxHeight = skiplist.MaxHeight
	if _, err := Create(o); err != nil {
		t.Fatalf("MaxHeight=%d (the cap) rejected: %v", skiplist.MaxHeight, err)
	}
}

// TestTuningSeam: a store made from DefaultOptions runs every fast path
// of the read path, and a tuning applied through the one seam is in
// force — observably, not just reported — in every handle later made
// from that store: by Reopen and by a crash and Reopen. A Load, of pool
// images and of a pairs dump alike, runs the default tuning until
// SetTuning changes it, and a Reopen of it keeps what was set.
func TestTuningSeam(t *testing.T) {
	o := DefaultOptions()
	o.Shards = 2
	o.Cost = pmem.DefaultCostModel() // a prefetch is only counted when it is charged
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	// drive reports the hint-seeded traversals and charged prefetches of
	// a fresh worker's pass over the keys.
	drive := func(st *Store) (seeded, prefetches uint64) {
		t.Helper()
		w := st.NewWorker(0)
		before := st.Stats().Mem.Prefetches
		for k := uint64(1); k <= 2000; k++ {
			if _, _, err := w.PutU64(k, k); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(1); k <= 2000; k++ {
			w.GetU64(k)
		}
		return w.Stats().HintSeeded, st.Stats().Mem.Prefetches - before
	}
	check := func(stage string, st *Store, want skiplist.Tuning) {
		t.Helper()
		for i := 0; i < st.NumShards(); i++ {
			if got := st.ShardList(i).Tuning(); got != want {
				t.Fatalf("%s: shard %d runs %+v, want %+v", stage, i, got, want)
			}
		}
		seeded, prefetches := drive(st)
		if (seeded == 0) != want.NoHints || (prefetches == 0) != want.NoPrefetch {
			t.Fatalf("%s: %d hint-seeded traversals, %d prefetches under %+v", stage, seeded, prefetches, want)
		}
	}
	defaults := skiplist.Tuning{RecoveryBudget: 1, TowerBranch: 4}
	check("DefaultOptions", st, defaults)

	tuned := skiplist.Tuning{RecoveryBudget: -1, TowerBranch: 100, NoHints: true, NoPrefetch: true}
	inForce := tuned
	inForce.TowerBranch = 64 // clamped
	st.SetTuning(tuned)
	check("SetTuning", st, inForce)

	if st, err = st.Reopen(); err != nil {
		t.Fatal(err)
	}
	check("Reopen", st, inForce)

	st.EnableCrashTracking()
	drive(st)
	st.SimulateCrash()
	if st, err = st.Reopen(); err != nil {
		t.Fatal(err)
	}
	check("SimulateCrash+Reopen", st, inForce)

	cfg := LoadConfig{Cost: o.Cost}
	phys, pairs := t.TempDir(), t.TempDir()
	if err := st.Save(phys); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveOnline(pairs); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{phys, pairs} {
		ld, err := LoadWithConfig(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check("Load", ld, defaults)
		ld.SetTuning(tuned)
		check("Load+SetTuning", ld, inForce)
		if ld, err = ld.Reopen(); err != nil {
			t.Fatal(err)
		}
		check("Load+Reopen", ld, inForce)
		ld.SetTuning(skiplist.Tuning{})
		check("zero Tuning", ld, defaults)
	}
}
