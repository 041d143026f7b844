package server

import (
	"net"
	"sort"
	"testing"

	"upskiplist"
	"upskiplist/internal/client"
	"upskiplist/internal/wire"
	"upskiplist/internal/ycsb"
)

// serverPerfOptions is the store for the pipelining acceptance test: 4
// keyspace shards, no access-cost model — the quantity under test is
// protocol and drain overhead, not simulated media latency.
func serverPerfOptions() upskiplist.Options {
	o := upskiplist.DefaultOptions()
	o.Shards = 4
	o.PoolWords = 1 << 21
	o.ChunkWords = 1 << 13
	o.MaxChunks = 512
	return o
}

// serverRun is what one runServerYCSBA measured.
type serverRun struct {
	opsPerSec   float64
	fencesPerOp float64
	avgDrain    float64 // single-key requests per connection drain
}

// runServerYCSBA starts a fresh server, preloads n keys, and replays a
// YCSB-A stream (50/50 read/update, Zipfian) from 4 connections at the
// given pipeline depth.
func runServerYCSBA(t *testing.T, depth, n, totalOps int) serverRun {
	t.Helper()
	const conns = 4
	st, err := upskiplist.Create(serverPerfOptions())
	if err != nil {
		t.Fatal(err)
	}
	w0 := st.NewWorker(0)
	for k := uint64(1); k <= uint64(n); k++ {
		if _, _, err := w0.PutU64(k, k*7+1); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	defer s.Shutdown()

	clients := make([]*client.Client, conns)
	for i := range clients {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	run := ycsb.NewRun(ycsb.WorkloadA, uint64(n))
	streams := make([][]ycsb.Op, conns)
	for i := range streams {
		streams[i] = run.NewStream(int64(i)+1).Fill(nil, (totalOps+conns-1)/conns)
	}
	fences0 := st.Stats().Fences()
	res := client.Run(client.LoadConfig{
		Clients: clients,
		Depth:   depth,
		Total:   totalOps,
		Next: func(conn, i int) client.Op {
			op := streams[conn][i]
			if op.Type == ycsb.Read {
				return client.Op{Kind: wire.OpGet, Key: op.Key}
			}
			return client.Op{Kind: wire.OpPut, Key: op.Key, Val: leBytes(op.Value | 1)}
		},
	})
	if res.Errs != 0 || res.Ops != totalOps {
		t.Fatalf("load run completed %d ok / %d errs, want %d / 0", res.Ops, res.Errs, totalOps)
	}
	snap := s.Snapshot()
	if snap.DrainedOps != uint64(totalOps) {
		t.Fatalf("drains carried %d ops, want %d", snap.DrainedOps, totalOps)
	}
	return serverRun{
		opsPerSec:   res.OpsPerSec(),
		fencesPerOp: float64(st.Stats().Fences()-fences0) / float64(totalOps),
		avgDrain:    snap.AvgDrain(),
	}
}

// TestServerPipeliningThroughput is the service-layer acceptance check
// on a YCSB-A workload over loopback from 4 connections, stated in
// counts. At depth 1 every drain carries exactly one request: a
// connection has one in flight. At depth 16 a connection's drain takes
// the window its client already has in flight (>= 8 requests on
// average), so one group commit amortizes its fences to <= 0.25 per op.
// The depth16/depth1 wall-clock ratio (4-6x measured) is only a
// backstop at 1.5x.
func TestServerPipeliningThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("perf measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("perf measurement; race-detector instrumentation distorts the protocol-overhead ratio")
	}
	const preload = 20000
	const ops = 20000

	// Warmup pair (unrecorded), then median of three back-to-back
	// ratios, mirroring TestShardScalingYCSBA's noise discipline.
	runServerYCSBA(t, 1, preload, ops)
	runServerYCSBA(t, 16, preload, ops)
	var ratios []float64
	for i := 0; i < 3; i++ {
		base := runServerYCSBA(t, 1, preload, ops)
		deep := runServerYCSBA(t, 16, preload, ops)
		t.Logf("pair %d: depth1 %.0f ops/s (drain %.3f, %.3f fences/op), depth16 %.0f ops/s (drain %.2f, %.3f fences/op)",
			i, base.opsPerSec, base.avgDrain, base.fencesPerOp, deep.opsPerSec, deep.avgDrain, deep.fencesPerOp)
		if base.avgDrain != 1 {
			t.Errorf("depth-1 drains average %.4f requests, want exactly 1", base.avgDrain)
		}
		if deep.avgDrain < 8 {
			t.Errorf("depth-16 drains average %.2f requests, want >= 8", deep.avgDrain)
		}
		if deep.fencesPerOp > 0.25 {
			t.Errorf("depth-16 run paid %.3f fences/op, want <= 0.25", deep.fencesPerOp)
		}
		ratios = append(ratios, deep.opsPerSec/base.opsPerSec)
	}
	sort.Float64s(ratios)
	t.Logf("YCSB-A @4 conns: median depth16/depth1 ratio %.2fx", ratios[1])
	if ratios[1] < 1.5 {
		t.Fatalf("depth-16 pipelining is only %.2fx depth-1 (backstop: >= 1.5x)", ratios[1])
	}
}
