package upskiplist

import (
	"math/rand"
	"sync"
	"testing"

	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
)

func testOptions() Options {
	o := DefaultOptions()
	o.MaxHeight = 12
	o.KeysPerNode = 8
	o.PoolWords = 1 << 21
	o.ChunkWords = 1 << 12
	o.MaxChunks = 256
	return o
}

func TestCreateInsertGet(t *testing.T) {
	st, err := Create(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	if _, _, err := w.PutU64(1, 10); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.GetU64(1); !ok || v != 10 {
		t.Fatalf("get: %d %v", v, ok)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenKeepsData(t *testing.T) {
	st, _ := Create(testOptions())
	w := st.NewWorker(0)
	for i := uint64(1); i <= 500; i++ {
		w.PutU64(i, i*2)
	}
	e1 := st.shards[0].clock.Current()
	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if e2 := st2.shards[0].clock.Current(); e2 != e1+1 {
		t.Fatalf("epoch %d -> %d, want +1", e1, e2)
	}
	w2 := st2.NewWorker(0)
	for i := uint64(1); i <= 500; i++ {
		if v, ok := w2.GetU64(i); !ok || v != i*2 {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
}

func TestStripedPlacement(t *testing.T) {
	o := testOptions()
	o.NUMANodes = 4
	o.Placement = Striped
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pools()) != 1 {
		t.Fatalf("striped store has %d pools", len(st.Pools()))
	}
	w := st.NewWorker(0)
	for i := uint64(1); i <= 100; i++ {
		w.PutU64(i, i)
	}
	if c := w.Count(); c != 100 {
		t.Fatalf("count = %d", c)
	}
}

func TestPerNodePlacement(t *testing.T) {
	o := testOptions()
	o.NUMANodes = 2
	o.Placement = PerNode
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pools()) != 2 {
		t.Fatalf("per-node store has %d pools", len(st.Pools()))
	}
	// Workers on both nodes interleave inserts; data lands in both pools.
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := st.NewWorker(id)
			for i := 0; i < 200; i++ {
				k := uint64(id*200 + i + 1)
				if _, _, err := w.PutU64(k, k); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	w := st.NewWorker(0)
	if c := w.Count(); c != 800 {
		t.Fatalf("count = %d", c)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Both pools must have received allocations (node-local chunks).
	for _, p := range st.Pools() {
		if p.Stats().Snapshot().Stores == 0 {
			t.Fatalf("pool %d untouched", p.ID())
		}
	}
}

func TestPerNodeRequiresMultipleNodes(t *testing.T) {
	o := testOptions()
	o.Placement = PerNode
	o.NUMANodes = 1
	if _, err := Create(o); err == nil {
		t.Fatal("PerNode with 1 node accepted")
	}
}

func TestScanThroughWorker(t *testing.T) {
	st, _ := Create(testOptions())
	w := st.NewWorker(0)
	for i := uint64(1); i <= 50; i++ {
		w.PutU64(i, i+100)
	}
	var got []uint64
	w.ScanU64(10, 20, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("scan: %v", got)
	}
}

func TestCrashLosesUnflushedOnly(t *testing.T) {
	st, _ := Create(testOptions())
	w := st.NewWorker(0)
	for i := uint64(1); i <= 200; i++ {
		w.PutU64(i, i)
	}
	st.EnableCrashTracking()
	// These inserts are fully persisted by the algorithm (every insert
	// persists before returning), so they must survive the crash.
	for i := uint64(201); i <= 250; i++ {
		w.PutU64(i, i)
	}
	st.SimulateCrash()
	st.DisableCrashTracking()
	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	w2 := st2.NewWorker(0)
	for i := uint64(1); i <= 250; i++ {
		if v, ok := w2.GetU64(i); !ok || v != i {
			t.Fatalf("key %d after crash: %d %v", i, v, ok)
		}
	}
	if err := w2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := Create(testOptions())
	w := st.NewWorker(0)
	for i := uint64(1); i <= 300; i++ {
		w.PutU64(i, i*7)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2 := st2.NewWorker(0)
	for i := uint64(1); i <= 300; i++ {
		if v, ok := w2.GetU64(i); !ok || v != i*7 {
			t.Fatalf("key %d after load: %d %v", i, v, ok)
		}
	}
	if st2.Options().KeysPerNode != st.Options().KeysPerNode {
		t.Fatal("options not preserved")
	}
	// Still writable.
	if _, _, err := w2.PutU64(1000, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("loaded from empty dir")
	}
}

func TestConcurrentWorkers(t *testing.T) {
	st, _ := Create(testOptions())
	const workers = 8
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := st.NewWorker(id)
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 500; i++ {
				k := uint64(rng.Intn(300) + 1)
				switch rng.Intn(3) {
				case 0:
					w.PutU64(k, k*13)
				case 1:
					if v, ok := w.GetU64(k); ok && v != k*13 {
						t.Errorf("key %d value %d", k, v)
						return
					}
				default:
					w.RemoveU64(k)
				}
			}
		}(id)
	}
	wg.Wait()
	if err := st.NewWorker(0).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelCharges(t *testing.T) {
	o := testOptions()
	o.Cost = pmem.DefaultCostModel()
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	w.PutU64(1, 1)
	if st.Pools()[0].Stats().Snapshot().Loads == 0 {
		t.Fatal("no loads recorded under cost model")
	}
}

func TestSaveLoadPerNodePools(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.NUMANodes = 2
	o.Placement = PerNode
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	// Spread allocations over both pools.
	for id := 0; id < 2; id++ {
		w := st.NewWorker(id)
		for i := 0; i < 150; i++ {
			k := uint64(id*150 + i + 1)
			if _, _, err := w.PutU64(k, k*3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Pools()) != 2 {
		t.Fatalf("loaded %d pools, want 2", len(st2.Pools()))
	}
	w := st2.NewWorker(0)
	for k := uint64(1); k <= 300; k++ {
		if v, ok := w.GetU64(k); !ok || v != k*3 {
			t.Fatalf("key %d after load: %d %v", k, v, ok)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryBudgetOption(t *testing.T) {
	st, err := Create(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	st.SetTuning(skiplist.Tuning{RecoveryBudget: -1}) // eager repair-on-sight
	w := st.NewWorker(0)
	for i := uint64(1); i <= 200; i++ {
		w.PutU64(i, i)
	}
	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	w2 := st2.NewWorker(0)
	// A single full scan with unlimited budget should claim every node it
	// meets.
	w2.ScanU64(1, 200, func(k, v uint64) bool { return true })
	for i := uint64(1); i <= 200; i++ {
		if v, ok := w2.GetU64(i); !ok || v != i {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
	if st2.ShardList(0).RecoveryStats().Claims == 0 {
		t.Fatal("eager budget performed no claims")
	}
}

func TestStoreCompact(t *testing.T) {
	st, _ := Create(testOptions())
	w := st.NewWorker(0)
	for i := uint64(1); i <= 300; i++ {
		w.PutU64(i, i)
	}
	for i := uint64(1); i <= 300; i++ {
		w.RemoveU64(i)
	}
	n, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("store compact reclaimed nothing")
	}
	if c := w.Count(); c != 0 {
		t.Fatalf("count = %d", c)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reinsert and survive a reopen.
	w.PutU64(5, 50)
	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := st2.NewWorker(0).GetU64(5); !ok || v != 50 {
		t.Fatalf("key 5 after compact+reopen: %d %v", v, ok)
	}
}

func TestPreallocateOption(t *testing.T) {
	o := testOptions()
	o.Preallocate = true
	o.MaxChunks = 16
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	for i := uint64(1); i <= 500; i++ {
		if _, _, err := w.PutU64(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if c := w.Count(); c != 500 {
		t.Fatalf("count = %d", c)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
