package crash

import (
	"testing"

	"upskiplist"
	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/lincheck"
)

func TestAbortTrialLinearizable(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.Mode = Abort
	cfg.CrashAfter = 20000
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPending == 0 {
		t.Log("warning: no operations were pending at the crash")
	}
	if err := res.History.Check(); err != nil {
		t.Fatalf("abort trial not strictly linearizable: %v", err)
	}
	if err := res.Store.NewWorker(0).CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
}

func TestPowerFailureTrialLinearizable(t *testing.T) {
	cfg := DefaultTrialConfig()
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.History.Check(); err != nil {
		t.Fatalf("power-failure trial not strictly linearizable: %v", err)
	}
	if err := res.Store.NewWorker(0).CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
	if res.OpsAfter == 0 {
		t.Fatal("no post-recovery operations ran")
	}
}

// TestManyPowerFailureTrials is the scaled-down Chapter 6 battery: many
// crash points, all histories strictly linearizable.
func TestManyPowerFailureTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("long crash battery")
	}
	crashPoints := []int64{3000, 7000, 12000, 19000, 27000, 41000, 60000, 85000}
	for _, after := range crashPoints {
		cfg := DefaultTrialConfig()
		cfg.CrashAfter = after
		cfg.PostOps = 200
		res, err := RunTrial(cfg)
		if err != nil {
			t.Fatalf("crash@%d: %v", after, err)
		}
		if err := res.History.Check(); err != nil {
			t.Fatalf("crash@%d: %v", after, err)
		}
		if err := res.Store.NewWorker(0).CheckInvariants(); err != nil {
			t.Fatalf("crash@%d invariants: %v", after, err)
		}
	}
}

// TestAnalyzerDetectsTamperedHistory reproduces §6.3's sanity check: the
// analyzer must flag histories with artificially corrupted reads.
func TestAnalyzerDetectsTamperedHistory(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.CrashAfter = 15000
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := res.History.Ops()
	// Corrupt one completed read to observe a never-written value.
	tampered := lincheck.NewHistory()
	done := false
	for _, op := range ops {
		if !done && op.Kind == lincheck.KindRead && !op.Pending() {
			op.Observed = ^uint64(0) >> 3 // never written
			done = true
		}
		tampered.Record(op)
	}
	if !done {
		t.Skip("history had no completed reads to tamper with")
	}
	if err := tampered.Check(); err == nil {
		t.Fatal("analyzer did not detect tampered history")
	}
}

// TestEvictionPowerFailureTrials models spontaneous cache evictions: an
// unflushed line may have reached the persistence domain anyway. RECIPE
// conversions depend only on flush ordering between dependent writes, so
// strict linearizability must survive any eviction pattern.
func TestEvictionPowerFailureTrials(t *testing.T) {
	for i, prob := range []float64{0.25, 0.5, 0.9} {
		cfg := DefaultTrialConfig()
		cfg.CrashAfter = 20000 + int64(i)*7000
		cfg.EvictProb = prob
		cfg.Seed = uint64(i) + 1
		res, err := RunTrial(cfg)
		if err != nil {
			t.Fatalf("p=%v: %v", prob, err)
		}
		if err := res.History.Check(); err != nil {
			t.Fatalf("p=%v: %v", prob, err)
		}
		if err := res.Store.NewWorker(0).CheckInvariants(); err != nil {
			t.Fatalf("p=%v invariants: %v", prob, err)
		}
	}
}

func TestTrialStatsPlausible(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.CrashAfter = 25000
	res, err := RunTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsBefore <= int(cfg.Preload) {
		t.Fatalf("only %d ops before crash", res.OpsBefore)
	}
	if res.OpsPending > cfg.Workers {
		t.Fatalf("%d pending ops for %d workers", res.OpsPending, cfg.Workers)
	}
	if cfg.Mode == PowerFailure && res.LinesReverted == 0 {
		t.Log("warning: power failure reverted no lines (workload may have persisted everything)")
	}
	// The trial's writes went through both publish paths: the post-crash
	// phase alone put chunks into the slab and retired them, and a third
	// of what it wrote needed none.
	s := res.Store.SlabStats()
	writes := uint64(float64(cfg.PostOps*cfg.Workers) * (1 - cfg.ReadFraction))
	if s.ChunksAlloced < writes/2 || s.ChunksAlloced > writes*5/6 || s.ChunksRetired == 0 {
		t.Fatalf("about %d post-crash writes allocated %d chunks and retired %d; want two in three out of line", writes, s.ChunksAlloced, s.ChunksRetired)
	}
}

// TestValueEncodingCoversRepresentations: consecutive ids cycle through
// an inline word, a ref-shaped 8-byte word and a 24-byte value — stored
// by the trial's store in its node word, in one chunk and in one chunk —
// each decodes back to its id, and damaged bytes decode to an
// observation no write produced.
func TestValueEncodingCoversRepresentations(t *testing.T) {
	st, err := upskiplist.Create(DefaultTrialConfig().Options)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	var buf [24]byte
	for id := uint64(1); id < 3000; id++ {
		b := valueBytes(id, &buf)
		before := st.SlabStats().ChunksAlloced
		if _, _, err := w.Put(id%500+1, b); err != nil {
			t.Fatal(err)
		}
		chunks := st.SlabStats().ChunksAlloced - before
		switch id % 3 {
		case 0:
			if len(b) != 8 || chunks != 0 {
				t.Fatalf("id %d: %x took %d chunks, want an inline word", id, b, chunks)
			}
		case 1:
			if len(b) != 8 || chunks != 1 {
				t.Fatalf("id %d: %x took %d chunks, want a ref-shaped word in one", id, b, chunks)
			}
		default:
			if len(b) != 24 || chunks != 1 {
				t.Fatalf("id %d: %d bytes in %d chunks", id, len(b), chunks)
			}
		}
		if got := valueID(b); got != id {
			t.Fatalf("valueID(valueBytes(%d)) = %d", id, got)
		}
		b[len(b)-1] ^= 1
		if got := valueID(b); got != tornMarker {
			t.Fatalf("id %d with a flipped bit decodes to %d", id, got)
		}
	}
	if valueID(nil) != tornMarker || valueID(make([]byte, 16)) != tornMarker {
		t.Fatal("a value of the wrong length decodes to an id")
	}
}

// TestDurableHistoryTrials reproduces §6.1.1's full instrumentation: the
// operation log itself lives in (crash-tracked) persistent memory and
// the analyzer's history is rebuilt from whatever survived the failure.
func TestDurableHistoryTrials(t *testing.T) {
	for i, after := range []int64{8000, 20000, 45000} {
		cfg := DefaultTrialConfig()
		cfg.CrashAfter = after
		cfg.Seed = uint64(i)
		res, err := RunDurableTrial(cfg)
		if err != nil {
			t.Fatalf("crash@%d: %v", after, err)
		}
		if err := res.History.Check(); err != nil {
			t.Fatalf("crash@%d: %v", after, err)
		}
		if err := res.Store.NewWorker(0).CheckInvariants(); err != nil {
			t.Fatalf("crash@%d invariants: %v", after, err)
		}
		if res.OpsAfter == 0 {
			t.Fatalf("crash@%d: no post-recovery records", after)
		}
	}
}

// TestDurableHistoryWithEviction combines durable instrumentation with
// the cache-eviction failure model.
func TestDurableHistoryWithEviction(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.CrashAfter = 25000
	cfg.EvictProb = 0.5
	cfg.Seed = 7
	res, err := RunDurableTrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiEraTrials runs several crash-recover cycles in one trial:
// epochs, allocation logs and lock stamps must compose across repeated
// failures, and the whole multi-era history must stay strictly
// linearizable.
func TestMultiEraTrials(t *testing.T) {
	for _, eras := range []int{2, 3, 4} {
		cfg := DefaultTrialConfig()
		cfg.Eras = eras
		cfg.CrashAfter = 15000
		cfg.PostOps = 150
		res, err := RunTrial(cfg)
		if err != nil {
			t.Fatalf("eras=%d: %v", eras, err)
		}
		if err := res.History.Check(); err != nil {
			t.Fatalf("eras=%d: %v", eras, err)
		}
		if err := res.Store.NewWorker(0).CheckInvariants(); err != nil {
			t.Fatalf("eras=%d invariants: %v", eras, err)
		}
		if e := epoch.Attach(res.Store.ShardPools(0)[0], alloc.EpochOff).Current(); e != uint64(eras)+1 {
			t.Fatalf("eras=%d: epoch = %d, want %d", eras, e, eras+1)
		}
	}
}
