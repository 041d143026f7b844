package main

import (
	"fmt"
	"net"

	"upskiplist"
	"upskiplist/internal/client"
	"upskiplist/internal/harness"
	"upskiplist/internal/server"
	"upskiplist/internal/wire"
	"upskiplist/internal/ycsb"
)

// runServer measures the network service layer: YCSB-A over loopback
// TCP, sweeping the per-connection pipeline depth. Depth 1 is the
// classic request/response client; deeper pipelines give each
// connection's drain the whole window in flight, so its group commit
// carries many ops (fewer fences) and the round trip is shared.
//
// By default the server runs in-process on an ephemeral loopback port.
// With -server-addr the experiment drives an already running
// upsl-server instead (started separately, e.g. by CI's smoke test);
// engine fence counters are not readable cross-process, so fences/op is
// reported as 0 in that mode, and a sample of acknowledged writes is
// read back for verification.
func runServerExp(c benchConfig) {
	header("Extension — network service layer: pipelined clients vs request/response")
	const conns = 4
	depths := []int{1, 4, 16, 64}
	totalOps := c.ops * conns
	fmt.Printf("(YCSB-A over loopback TCP, %d connections, %d total ops, preload %d, pipeline 128)\n",
		conns, totalOps, c.preload)

	var st *upskiplist.Store
	addr := c.serverAddr
	if addr == "" {
		o := upskiplist.DefaultOptions()
		o.Shards = 4
		o.Cost = c.cost
		blockWords := uint64(5+o.MaxHeight+2*o.KeysPerNode) + 8
		nodes := (c.preload+uint64(totalOps))/uint64(o.KeysPerNode/2) + 1024
		o.PoolWords = nodes*blockWords*3/uint64(o.Shards) + (1 << 21)
		o.ChunkWords = 1 << 14
		o.MaxChunks = o.PoolWords/o.ChunkWords + 16
		var err error
		st, err = upskiplist.Create(o)
		if err != nil {
			fatalf("creating store: %v", err)
		}
		s, err := server.New(server.Config{Store: st, MaxPipeline: 128,
			Logf: func(string, ...any) {}})
		if err != nil {
			fatalf("starting server: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("listen: %v", err)
		}
		s.Serve(ln)
		defer s.Shutdown()
		addr = ln.Addr().String()
	}

	// Preload through the protocol so external mode works identically.
	pc, err := client.Dial(addr)
	if err != nil {
		fatalf("dial %s: %v", addr, err)
	}
	pres := client.Run(client.LoadConfig{
		Clients: []*client.Client{pc},
		Depth:   64,
		Total:   int(c.preload),
		Next: func(_, i int) client.Op {
			k := uint64(i + 1)
			return client.Op{Kind: wire.OpPut, Key: k, Val: leBytes(k*7 + 1)}
		},
	})
	pc.Close()
	if pres.Errs != 0 {
		fatalf("preload: %d errors", pres.Errs)
	}

	var records []harness.BenchRecord
	for _, depth := range depths {
		clients := make([]*client.Client, conns)
		for i := range clients {
			if clients[i], err = client.Dial(addr); err != nil {
				fatalf("dial %s: %v", addr, err)
			}
		}
		run := ycsb.NewRun(ycsb.WorkloadA, c.preload)
		streams := make([][]ycsb.Op, conns)
		for i := range streams {
			streams[i] = run.NewStream(int64(i)+1).Fill(nil, (totalOps+conns-1)/conns)
		}
		var fences0 uint64
		if st != nil {
			fences0 = st.Stats().Fences()
		}
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
		var fencesPerOp float64
		if st != nil && res.Ops > 0 {
			fencesPerOp = float64(st.Stats().Fences()-fences0) / float64(res.Ops)
		}
		// Read back a sample of the preloaded keys as an end-to-end
		// acknowledgment check (acked writes must be visible).
		verifier := clients[0]
		for k := uint64(1); k <= 100 && k <= c.preload; k++ {
			v, found, err := verifier.GetU64NoCtx(k)
			if err != nil {
				fatalf("verify Get(%d): %v", k, err)
			}
			if !found || v == 0 {
				fatalf("verify Get(%d) = (%d, %v): preloaded key lost", k, v, found)
			}
		}
		for _, cl := range clients {
			cl.Close()
		}
		if res.Errs != 0 {
			fatalf("depth %d: %d errored ops", depth, res.Errs)
		}
		shards := 0 // unknown for an external server
		if st != nil {
			shards = st.NumShards()
		}
		rec := harness.BenchRecord{
			Experiment: "server", Index: "UPSL-server", Workload: "A",
			Threads: conns, Shards: shards, Conns: conns, Depth: depth,
			Ops: res.Ops, OpsPerSec: res.OpsPerSec(),
			P50Micros:   float64(res.P50.Microseconds()),
			P95Micros:   float64(res.P95.Microseconds()),
			P99Micros:   float64(res.P99.Microseconds()),
			P999Micros:  float64(res.P999.Microseconds()),
			OpLatency:   make(map[string]harness.LatencySummary, len(res.ByOp)),
			FencesPerOp: fencesPerOp,
		}
		for op, h := range res.ByOp {
			rec.OpLatency[op.String()] = harness.Summarize(h)
		}
		fmt.Println(rec)
		records = append(records, rec)
	}

	if len(records) > 1 {
		fmt.Printf("\npipelining: depth %d -> %d gives %.2fx throughput",
			records[0].Depth, records[len(records)-1].Depth,
			records[len(records)-1].OpsPerSec/records[0].OpsPerSec)
		if st != nil {
			fmt.Printf(", fences/op %.3f -> %.3f",
				records[0].FencesPerOp, records[len(records)-1].FencesPerOp)
		}
		fmt.Println()
	}
	if c.benchJSON != "" {
		if err := harness.WriteBenchJSON(c.benchJSON, records); err != nil {
			fatalf("writing %s: %v", c.benchJSON, err)
		}
		fmt.Printf("wrote %d records to %s\n", len(records), c.benchJSON)
	}
}
