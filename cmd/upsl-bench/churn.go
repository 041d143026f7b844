package main

import (
	"fmt"
	"math/rand"
	"time"

	upskiplist "upskiplist"
	"upskiplist/internal/client"
	"upskiplist/internal/harness"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/wire"
)

// The churn experiment: a constant-size live set under continuous
// insert/remove turnover. Fresh keys enter at the leading edge of the
// keyspace; victims are removed uniformly at random from the live set,
// scattering fully-tombstoned nodes through the live span. Without
// online reclamation the allocated footprint — and, once the node
// population outgrows the tower index, per-op traversal work — grows
// with every phase; with it both stay pinned to the live set. One
// BenchRecord per phase per store captures throughput over time and
// the live-vs-allocated block curves.

const (
	churnWindow   = 2000 // live keys at any moment
	churnPerPhase = 4000 // insert+remove pairs per phase
	churnPhases   = 8
)

func (c benchConfig) churnOptions(reclaim bool) upskiplist.Options {
	o := upskiplist.DefaultOptions()
	// Height provisioned for the steady-state live set (2^8 nodes x 8
	// keys covers the window with headroom) — the configuration online
	// reclamation makes sustainable.
	o.MaxHeight = 8
	o.KeysPerNode = 8
	o.PoolWords = 1 << 21
	o.ChunkWords = 1 << 13
	o.MaxChunks = o.PoolWords/o.ChunkWords + 16
	o.Cost = c.cost
	o.OnlineReclaim = reclaim
	o.ReclaimInterval = time.Millisecond
	o.ReclaimScanNodes = 32
	return o
}

// churnLiveSet tracks the live keys so removals and reads sample
// uniformly from them.
type churnLiveSet struct {
	alive []uint64
	hi    uint64
}

func runChurnPhase(w *upskiplist.Worker, rng *rand.Rand, cs *churnLiveSet) (float64, error) {
	ops := 0
	start := time.Now()
	for i := 0; i < churnPerPhase; i++ {
		if _, _, err := w.PutU64(cs.hi, cs.hi); err != nil {
			return 0, err
		}
		cs.alive = append(cs.alive, cs.hi)
		cs.hi++
		j := rng.Intn(len(cs.alive))
		victim := cs.alive[j]
		cs.alive[j] = cs.alive[len(cs.alive)-1]
		cs.alive = cs.alive[:len(cs.alive)-1]
		if _, _, err := w.Remove(victim); err != nil {
			return 0, err
		}
		w.Get(cs.alive[rng.Intn(len(cs.alive))])
		w.Get(cs.alive[rng.Intn(len(cs.alive))])
		ops += 4
	}
	return float64(ops) / time.Since(start).Seconds(), nil
}

// churnSettle waits for an attached reclaimer to drain its pipeline so
// the census reflects steady state. No-op without reclamation.
func churnSettle(st *upskiplist.Store) {
	if st.ShardList(0).Reclaimer() == nil {
		return
	}
	prev := st.ReclaimStats()
	for i := 0; i < 200; i++ {
		time.Sleep(2 * time.Millisecond)
		cur := st.ReclaimStats()
		if cur.Freed == prev.Freed && cur.LimboDepth == 0 && cur.Retired == prev.Retired {
			return
		}
		prev = cur
	}
}

func runChurnExp(c benchConfig) {
	header("Extension — online reclamation: constant live set under churn, footprint and throughput over time")
	fmt.Printf("(window=%d live keys, %d insert+remove pairs per phase, %d phases, 1 worker)\n",
		churnWindow, churnPerPhase, churnPhases)
	var records []harness.BenchRecord

	for _, reclaim := range []bool{false, true} {
		label := "UPSL-base"
		if reclaim {
			label = "UPSL-reclaim"
		}
		st, err := upskiplist.Create(c.churnOptions(reclaim))
		if err != nil {
			fatalf("%s: %v", label, err)
		}
		// Hints off in both configurations: the experiment measures how
		// traversal cost scales with the dead-node population, the path
		// the hint cache short-circuits.
		st.SetTuning(skiplist.Tuning{NoHints: true})
		w := st.NewWorker(1)
		rng := rand.New(rand.NewSource(42))
		cs := &churnLiveSet{hi: 1}
		for k := 0; k < churnWindow; k++ {
			if _, _, err := w.PutU64(cs.hi, cs.hi); err != nil {
				fatalf("%s fill: %v", label, err)
			}
			cs.alive = append(cs.alive, cs.hi)
			cs.hi++
		}
		for p := 1; p <= churnPhases; p++ {
			opsPerSec, err := runChurnPhase(w, rng, cs)
			if err != nil {
				fatalf("%s phase %d: %v", label, p, err)
			}
			churnSettle(st)
			census := st.BlockCensus()
			st.PauseReclaim()
			stats := st.ShardList(0).Stats(w.Ctx())
			st.ResumeReclaim()
			rec := harness.BenchRecord{
				Experiment: "churn", Index: label, Workload: "churn",
				Threads: 1, Shards: 1, Batch: 1,
				Ops: 4 * churnPerPhase, OpsPerSec: opsPerSec,
				Phase:       p,
				AllocBlocks: census.Node + census.Retired,
				LiveNodes:   stats.Nodes - stats.EmptyNodes,
				FreedBlocks: st.ReclaimStats().Freed,
			}
			fmt.Printf("%-12s phase=%d %12.0f ops/s  alloc=%-5d live=%-5d freed=%d\n",
				label, p, rec.OpsPerSec, rec.AllocBlocks, rec.LiveNodes, rec.FreedBlocks)
			records = append(records, rec)
		}
		st.DisableOnlineReclaim()
	}

	base, rec := records[churnPhases-1], records[2*churnPhases-1]
	fmt.Printf("\nfinal phase: %.2fx throughput, footprint %d vs %d blocks (%.1fx)\n",
		rec.OpsPerSec/base.OpsPerSec, rec.AllocBlocks, base.AllocBlocks,
		float64(base.AllocBlocks)/float64(rec.AllocBlocks))

	if c.benchJSON != "" {
		if err := harness.WriteBenchJSON(c.benchJSON, records); err != nil {
			fatalf("writing %s: %v", c.benchJSON, err)
		}
		fmt.Printf("wrote %d records to %s\n", len(records), c.benchJSON)
	}
}

// runChurnWireExp drives a dead-segment workload through a running
// upsl-server (-server-addr required): every key of a fresh segment is
// inserted and then deleted over the wire, fully tombstoning the nodes
// behind them. Against a server started with -online-reclaim, the
// server-side reclaimers retire and free those blocks while serving —
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
	fmt.Println("segment fully tombstoned; a -online-reclaim server now retires it in the background")
}
