package server

import (
	"strings"
	"testing"

	"upskiplist/internal/metrics"
	"upskiplist/internal/wire"
)

// TestServerMetricsExposition drives a mixed workload through an
// instrumented server and checks the Prometheus exposition: request
// counters by opcode, drain queue-wait/apply/drain-size histograms,
// and the conns gauge.
func TestServerMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	s, addr := newTestServer(t, Config{Metrics: reg})
	c := dialT(t, addr)

	for i := uint64(1); i <= 20; i++ {
		if _, _, err := c.PutU64NoCtx(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		if _, _, err := c.GetU64NoCtx(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.DelU64NoCtx(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScanNoCtx(1, 20, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BatchNoCtx([]wire.BatchOp{
		{Kind: wire.OpPut, Key: 100, Value: leBytes(1)},
		{Kind: wire.OpGet, Key: 100},
	}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`upsl_server_requests_total{op="PUT"} 20`,
		`upsl_server_requests_total{op="GET"} 5`,
		`upsl_server_requests_total{op="DEL"} 1`,
		`upsl_server_requests_total{op="SCAN"} 1`,
		`upsl_server_requests_total{op="BATCH"} 1`,
		`upsl_server_batch_ops_total 2`,
		`upsl_server_conns_accepted_total 1`,
		`upsl_server_conns 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}

	// The 26 single-key requests all passed through drains: every one
	// got a queue-wait sample, every drain an apply-time and a size
	// sample.
	snap := s.Snapshot()
	if qw := s.met.queueWait.Hist().Count(); qw != 26 {
		t.Errorf("queue-wait samples = %d, want 26", qw)
	}
	if at := s.met.applyTime.Hist().Count(); at != snap.Drains {
		t.Errorf("apply-time samples = %d, want %d (one per drain)", at, snap.Drains)
	}
	if ds := s.met.drainSize.Hist().Count(); ds != snap.Drains {
		t.Errorf("drain-size samples = %d, want %d", ds, snap.Drains)
	}
	if sum := s.met.drainSize.Hist().Sum(); sum != snap.DrainedOps {
		t.Errorf("drain-size sum = %d, want %d drained ops", sum, snap.DrainedOps)
	}
	// Drain counters are the same registry cells the exposition shows.
	if !strings.Contains(body, "upsl_server_drains_total") {
		t.Error("exposition missing upsl_server_drains_total")
	}

	// The shared snapshot derives Ops from the request counters and
	// carries the engine's Mem section.
	if want := uint64(20 + 5 + 1 + 1 + 2); snap.Ops != want {
		t.Errorf("snapshot Ops = %d, want %d", snap.Ops, want)
	}
	if snap.Mem.Fences == 0 || snap.Shards != 4 {
		t.Errorf("snapshot engine section empty: fences=%d shards=%d", snap.Mem.Fences, snap.Shards)
	}
}

// TestServerReadyLive pins the health-probe state machine: ready+live
// while serving, not ready (but still live) once draining begins, and
// neither after stop.
func TestServerReadyLive(t *testing.T) {
	s, addr := newTestServer(t, Config{})
	if !s.Ready() || !s.Live() {
		t.Fatalf("serving: Ready=%v Live=%v, want true/true", s.Ready(), s.Live())
	}
	c := dialT(t, addr)
	if _, _, err := c.PutU64NoCtx(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Error("Ready after Shutdown")
	}
	if s.Live() {
		t.Error("Live after stop completed")
	}
}

// TestServerUninstrumentedNoTimestamps checks the opt-in contract:
// without Config.Metrics, requests carry no enqueue timestamps and the
// counters still feed Snapshot.
func TestServerUninstrumentedNoTimestamps(t *testing.T) {
	s, addr := newTestServer(t, Config{})
	if s.met != nil {
		t.Fatal("srvMetrics allocated without Config.Metrics")
	}
	c := dialT(t, addr)
	if _, _, err := c.PutU64NoCtx(7, 70); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.Puts != 1 || snap.Ops != 1 {
		t.Fatalf("snapshot = puts %d ops %d, want 1/1", snap.Puts, snap.Ops)
	}
}
