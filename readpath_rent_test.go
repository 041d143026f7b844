package upskiplist

import (
	"testing"

	"upskiplist/internal/pmem"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/ycsb"
)

// TestReadPathRent is the read path's rent table, in counts: every
// mechanism that keeps a Tuning switch must pay for it. One worker
// replays a seeded read-only YCSB-C stream under the Zipfian and under
// the uniform request distribution — Zipfian rides the line cache,
// uniform is the anti-cache case — on the default store and with each
// mechanism turned off alone, and the table logs what turning it off
// adds per op: model units (the simulated time the spin loops burn),
// loads, line misses and nodes visited. Each mechanism must save at
// least 3 % model units/op on one of the two streams, and everything off
// at once must cost at least 1.15x the default on both. All of it is a
// pure function of the stream, so the verdict is the same on any host.
func TestReadPathRent(t *testing.T) {
	if testing.Short() {
		t.Skip("perf measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("the counts are the same under the race detector, and ten times slower to get")
	}
	const preload, ops = 100_000, 40_000
	switches := []struct {
		name   string
		tuning skiplist.Tuning
	}{
		{"hints", skiplist.Tuning{NoHints: true}},
		{"prefetch", skiplist.Tuning{NoPrefetch: true}},
		{"sparse towers", skiplist.Tuning{TowerBranch: 2}},
	}
	allOff := skiplist.Tuning{NoHints: true, NoPrefetch: true, TowerBranch: 2}
	// rent[i] is the largest share of the default's units/op that turning
	// switches[i] off added on any stream.
	rent := make([]float64, len(switches))
	streams := 0
	for _, dist := range []ycsb.DistKind{ycsb.Zipfian, ycsb.Uniform} {
		name := "Zipfian"
		if dist == ycsb.Uniform {
			name = "Uniform"
		}
		t.Run(name, func(t *testing.T) {
			wl := ycsb.Workload{Name: "C", LongName: "Read-Only", ReadPct: 100, Dist: dist}
			stream := ycsb.NewRun(wl, preload).NewStream(1).Fill(nil, ops)
			type reading struct{ units, loads, misses, nodes float64 }
			measure := func(tuning skiplist.Tuning) reading {
				o := DefaultOptions()
				o.PoolWords = 1 << 24
				o.Cost = pmem.DefaultCostModel()
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
				units, mem, nodes := poolUnits(o.Cost, st.Pools()), st.Stats().Mem, w.Stats().NodesVisited
				for _, op := range stream {
					w.GetU64(op.Key)
				}
				d := memDelta(st, mem)
				return reading{
					units:  float64(poolUnits(o.Cost, st.Pools())-units) / ops,
					loads:  float64(d.Loads) / ops,
					misses: float64(d.Misses) / ops,
					nodes:  float64(w.Stats().NodesVisited-nodes) / ops,
				}
			}
			def := measure(skiplist.Tuning{})
			t.Logf("YCSB-C/%s, 1 worker, default: %.2f units/op, %.4f loads/op, %.4f misses/op, %.4f nodes/op",
				name, def.units, def.loads, def.misses, def.nodes)
			for i, sw := range switches {
				r := measure(sw.tuning)
				share := r.units/def.units - 1
				t.Logf("%-13s off: %+8.2f units/op (%+5.1f %%), %+8.4f loads/op, %+7.4f misses/op, %+7.4f nodes/op",
					sw.name, r.units-def.units, 100*share, r.loads-def.loads, r.misses-def.misses, r.nodes-def.nodes)
				rent[i] = max(rent[i], share)
			}
			all := measure(allOff)
			t.Logf("all off:       %.2f units/op (%.2fx)", all.units, all.units/def.units)
			if all.units < 1.15*def.units {
				t.Errorf("everything off is charged %.2f units/op, the default %.2f: %.2fx, want >= 1.15x",
					all.units, def.units, all.units/def.units)
			}
			streams++
		})
	}
	if streams < 2 {
		return // a -run filter left a stream out; the rent needs both
	}
	for i, sw := range switches {
		if rent[i] < 0.03 {
			t.Errorf("turning %s off adds at most %.1f %% model units/op on either stream: it does not pay its switch (want >= 3 %%)",
				sw.name, 100*rent[i])
		}
	}
}
