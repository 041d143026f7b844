package main

import (
	"fmt"

	"upskiplist/internal/client"
	"upskiplist/internal/wire"
)

// runChurnWireExp drives a dead-segment workload through a running
// upsl-server (-server-addr required): every key of a fresh segment is
// inserted and then deleted over the wire, fully tombstoning the nodes
// behind them. Against a server started with -online-reclaim, the
// server's workers retire and free those blocks while serving —
// CI's loopback smoke runs this and then asserts that the
// upsl_reclaim_blocks_freed_total scrape moved.
func runChurnWireExp(c benchConfig) {
	header("Extension — online reclamation through the wire protocol")
	if c.serverAddr == "" {
		fatalf("churn-wire drives an external upsl-server: set -server-addr")
	}
	cl, err := client.Dial(c.serverAddr)
	if err != nil {
		fatalf("dial %s: %v", c.serverAddr, err)
	}
	defer cl.Close()
	n := c.ops
	if n <= 0 {
		n = 4000
	}
	const base = uint64(1) << 40 // clear of any preloaded keyspace
	for _, kind := range []wire.Opcode{wire.OpPut, wire.OpDel} {
		res := client.Run(client.LoadConfig{
			Clients: []*client.Client{cl},
			Depth:   32,
			Total:   n,
			Next: func(_, i int) client.Op {
				return client.Op{Kind: kind, Key: base + uint64(i), Val: leBytes(1)}
			},
		})
		if res.Errs != 0 {
			fatalf("churn-wire %s phase: %d errored ops", kind, res.Errs)
		}
		fmt.Printf("%-4s x%d: %10.0f ops/s\n", kind, n, res.OpsPerSec())
	}
	fmt.Println("segment fully tombstoned; a -online-reclaim server retired it as the deletes emptied it")
}
