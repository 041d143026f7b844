package upskiplist

import (
	"testing"

	"upskiplist/internal/skiplist"
	"upskiplist/internal/ycsb"
)

// TestHotPathYCSBC is the acceptance check for the cache-conscious
// traversal work: the default store (block search + foresight
// prefetching + sparse towers) against the reference traversal (per-word
// search, no prefetch, classic p = 1/2 towers — the hot path before that
// optimization pass) on read-only YCSB-C, under BOTH the Zipfian and the
// uniform request distribution. Zipfian rides the line cache (hot nodes
// resident, block loads nearly free); uniform is the anti-cache case
// where the win must come from fewer lines touched per op and
// prefetch/compare overlap — passing both shows the fast path is not a
// cache artifact.
//
// The comparison is in what the cost model charged, read from the
// published ledger of one worker replaying one seeded stream: model
// units per op (the simulated time the spin loops would burn) must drop
// by the 1.15x the pass was accepted on, and nodes visited per op must
// drop too. Both are pure functions of the stream, so the verdict is
// the same on any host; ops/s over 8 goroutines on 2 cores was not.
func TestHotPathYCSBC(t *testing.T) {
	if testing.Short() {
		t.Skip("perf measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("the counts are the same under the race detector, and ten times slower to get")
	}
	const preload = 40000
	const ops = 40000

	for _, dist := range []ycsb.DistKind{ycsb.Zipfian, ycsb.Uniform} {
		name := "Zipfian"
		if dist == ycsb.Uniform {
			name = "Uniform"
		}
		t.Run(name, func(t *testing.T) {
			wl := ycsb.Workload{Name: "C", LongName: "Read-Only", ReadPct: 100, Dist: dist}
			stream := ycsb.NewRun(wl, preload).NewStream(1).Fill(nil, ops)
			measure := func(tuning skiplist.Tuning) (unitsPerOp, nodesPerOp float64) {
				o := perfOptions(1)
				st, err := Create(o)
				if err != nil {
					t.Fatal(err)
				}
				st.SetTuning(tuning)
				w := st.NewWorker(0)
				for k := uint64(1); k <= preload; k++ {
					if _, _, err := w.PutU64(k, k*7+1); err != nil {
						t.Fatal(err)
					}
				}
				units, nodes := poolUnits(o.Cost, st.Pools()), w.Stats().NodesVisited
				for _, op := range stream {
					w.GetU64(op.Key)
				}
				units, nodes = poolUnits(o.Cost, st.Pools())-units, w.Stats().NodesVisited-nodes
				return float64(units) / ops, float64(nodes) / ops
			}
			refUnits, refNodes := measure(skiplist.Tuning{Reference: true, TowerBranch: 2})
			fastUnits, fastNodes := measure(skiplist.Tuning{})
			t.Logf("YCSB-C/%s, 1 worker: reference %.1f units/op, %.2f nodes/op; default %.1f units/op, %.2f nodes/op (%.2fx)",
				name, refUnits, refNodes, fastUnits, fastNodes, refUnits/fastUnits)
			if refUnits < 1.15*fastUnits {
				t.Errorf("the default traversal is charged %.1f units/op, the reference %.1f: %.2fx, want >= 1.15x",
					fastUnits, refUnits, refUnits/fastUnits)
			}
			if fastNodes >= refNodes {
				t.Errorf("the default traversal visits %.2f nodes/op, the reference %.2f", fastNodes, refNodes)
			}
		})
	}
}
