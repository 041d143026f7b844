package upskiplist

import (
	"fmt"
	"strings"
	"testing"

	"upskiplist/internal/metrics"
	"upskiplist/internal/pmem"
)

func TestStoreMetricsRecording(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	st, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	st.EnableMetrics(reg)

	w := st.NewWorker(0)
	for k := uint64(KeyMin); k < KeyMin+100; k++ {
		if _, _, err := w.PutU64(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(KeyMin); k < KeyMin+100; k++ {
		if _, ok := w.GetU64(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
	w.Contains(KeyMin)
	if _, _, err := w.RemoveU64(KeyMin); err != nil {
		t.Fatal(err)
	}
	if err := w.ScanU64(KeyMin, KeyMin+50, func(_, _ uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	w.ApplyBatch([]Op{
		{Kind: OpInsert, Key: KeyMin + 200, Value: u64v(1)},
		{Kind: OpGet, Key: KeyMin + 200},
		{Kind: OpRemove, Key: KeyMin + 200},
	})

	m := st.met.Load()
	wantCounts := map[opKind]uint64{
		opKindInsert:   100,
		opKindGet:      100,
		opKindContains: 1,
		opKindRemove:   1,
		opKindScan:     1,
	}
	for k, want := range wantCounts {
		if got := m.opLat[k].Hist().Count(); got != want {
			t.Errorf("opLat[%s].Count() = %d, want %d", opKindNames[k], got, want)
		}
	}
	if got := m.batchLat.Hist().Count(); got != 1 {
		t.Errorf("batchLat count = %d, want 1", got)
	}
	if got := m.batchOps.Load(); got != 3 {
		t.Errorf("batchOps = %d, want 3", got)
	}
	// Interleaved routing over a dense key range must touch both shards,
	// and the shard counters must sum to the routed ops (point ops plus
	// batched ops; scans are not routed through a single shard).
	var routed uint64
	for si, c := range m.shardOps {
		if c.Load() == 0 {
			t.Errorf("shard %d routed no ops", si)
		}
		routed += c.Load()
	}
	if want := uint64(100 + 100 + 1 + 1 + 3); routed != want {
		t.Errorf("routed ops = %d, want %d", routed, want)
	}
	// Every insert fences at least once; the fence-wait histogram must
	// have fired.
	fence := reg.Histogram("upsl_fence_wait_seconds", "", nil)
	if fence.Hist().Count() == 0 {
		t.Error("fence-wait histogram recorded nothing")
	}

	// The exposition must carry the per-op-kind series.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`upsl_op_seconds_count{op="insert"} 100`,
		`upsl_op_seconds_count{op="get"} 100`,
		`upsl_shard_ops_total{shard="0"}`,
		`upsl_shard_ops_total{shard="1"}`,
		"upsl_fence_wait_seconds_count",
		"upsl_batch_commit_seconds_count 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// DisableMetrics freezes the instruments.
	st.DisableMetrics()
	before := m.opLat[opKindGet].Hist().Count()
	w.GetU64(KeyMin + 1)
	if got := m.opLat[opKindGet].Hist().Count(); got != before {
		t.Errorf("recording continued after DisableMetrics: %d -> %d", before, got)
	}
}

// TestDeferredRepairMetrics: a split that a crash interrupts after its
// new node is linked leaves the node write-locked; after Reopen the
// first operation that meets it repairs it, erasing the copied keys by
// range, and the scrape counts the claim, the split repair and the
// erased keys.
func TestDeferredRepairMetrics(t *testing.T) {
	o := testOptions()
	for after := int64(1); after < 5000; after++ {
		st, err := Create(o)
		if err != nil {
			t.Fatal(err)
		}
		w := st.NewWorker(0)
		for k := uint64(1); k <= uint64(o.KeysPerNode); k++ {
			if _, _, err := w.PutU64(k*10, k); err != nil {
				t.Fatal(err)
			}
		}
		// The next insert splits the full node; crash it after `after`
		// pool accesses.
		st.SetInjector(pmem.NewCountdownInjector(after))
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashSignal); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			_, _, err := w.PutU64(85, 85)
			return err != nil
		}()
		if !crashed {
			t.Fatal("no crash point interrupted the split with keys copied")
		}
		st.SetInjector(nil)
		st.SimulateCrash()
		st2, err := st.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		w2 := st2.NewWorker(0)
		for k := uint64(1); k <= uint64(o.KeysPerNode); k++ {
			if v, ok := w2.GetU64(k * 10); !ok || v != k {
				t.Fatalf("crash after %d accesses: key %d holds %d, %v", after, k*10, v, ok)
			}
		}
		r := st2.DeferredRepairs()
		if r.Splits == 0 || r.SplitErased == 0 {
			continue
		}
		reg := metrics.NewRegistry()
		st2.EnableMetrics(reg)
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`upsl_deferred_repairs_total{kind="split"} %d`, r.Splits),
			fmt.Sprintf(`upsl_deferred_repairs_total{kind="claim"} %d`, r.Claims),
			fmt.Sprintf(`upsl_deferred_repairs_total{kind="tower"} %d`, r.Inserts),
			fmt.Sprintf(`upsl_split_repair_keys_erased_total %d`, r.SplitErased),
		} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("exposition missing %q", want)
			}
		}
		if r.Splits != 1 || r.Claims == 0 {
			t.Errorf("repairs after one interrupted split: %+v", r)
		}
		t.Logf("crash after %d accesses: %+v", after, r)
		return
	}
	t.Fatal("no crash point left a split to repair")
}
