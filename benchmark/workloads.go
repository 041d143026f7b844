package main

import (
	"fmt"
	"math"

	"upskiplist"
	"upskiplist/internal/pmem"
)

// Spec defines one workload. Every number here is part of the
// benchmark's definition: changing one makes results incomparable with
// earlier commits.
type Spec struct {
	Name string
	// Wire runs the operations through internal/server on loopback TCP
	// instead of through embedded workers.
	Wire bool
	// Drivers is the number of closed-loop callers: embedded workers, or
	// client connections. Never more than the host's two cores.
	Drivers int
	// Depth is the number of requests each connection keeps in flight.
	Depth    int
	Shards   int
	Keys     int // preloaded keys
	ValueLen int // bytes per value
	Law      Law
	// SegOps is the number of operations in one measured segment, over
	// all drivers. A run is as many segments as fit in -seconds; every
	// timing metric is the best decile of its per-segment values. Sized so
	// a segment lasts 25–50 ms at this commit — short enough that some
	// segments of every run escape the host's interference — and every
	// reported op kind has at least 1000 samples in it, which leaves ten
	// beyond p99. The one exception is scan-e-4s, whose inserts are 5 % of
	// a stream of 22 K ops/s: its segments last 0.35 s and hold 400.
	SegOps int
	// Typical reports the median of the segments instead of the best
	// decile. It is set where two embedded workers contend for the same
	// cache lines: how fast a segment runs then depends on how the two
	// happen to interleave, and the best segments are the ones in which
	// they did not run side by side — the best decile would measure the
	// absence of what the workload exists to show (it swung 36 % from run
	// to run, the median of long segments 13 %). Such a workload has long
	// segments, so that each one averages over many interleavings.
	Typical bool
	// shrink is the factor a smoke test scaled the workload by; 0 is the
	// benchmark itself.
	shrink float64
}

// estimate reduces a timing metric's per-segment values to the value
// reported.
func (sp Spec) estimate(v []float64, higherIsBetter bool) float64 {
	if sp.Typical {
		return median(v)
	}
	return bestDecile(v, higherIsBetter)
}

// Workloads is the benchmark, in the order BENCHMARK.json lists it.
// point-a-2w is not listed there: two workers bouncing one cache line run
// in two regimes, side by side or one at a time, and which one a run
// falls into is the host's choice — its median latency swung 40 % between
// runs of the same code, so no bound can be put on it. It runs by name,
// in the all-workloads mode, and as the sibling of point-a-1w, whose
// traced pass reports store.scaling_2w_over_1w.
//
// The key counts are a fifth to a tenth of a production-shaped store so
// that one run — three set-ups, the measured window, the full sweep and
// five crash/reopen rounds — fits the run-time cap on the 2-core host.
// What each workload stresses survives the scaling: the point and wire
// stores are 14 MB and 7 MB of nodes and chunks against a 512 KiB
// per-worker line cache, value-1k is 26 MB of slab pages, churn-4k fits
// the line cache by design.
var Workloads = []Spec{
	{Name: "point-a-1w", Drivers: 1, Shards: 1, Keys: 200_000, ValueLen: 8, Law: LawA, SegOps: 10_000},
	{Name: "point-a-2w", Drivers: 2, Shards: 1, Keys: 200_000, ValueLen: 8, Law: LawA, SegOps: 40_000, Typical: true},
	{Name: "value-1k", Drivers: 1, Shards: 1, Keys: 20_000, ValueLen: 1024, Law: LawA, SegOps: 4_000},
	{Name: "scan-e-4s", Drivers: 1, Shards: 4, Keys: 100_000, ValueLen: 64, Law: LawE, SegOps: 8_000},
	{Name: "churn-4k", Drivers: 1, Shards: 1, Keys: 4_000, ValueLen: 8, Law: LawChurn, SegOps: 8_000},
	{Name: "wire-a-d1", Wire: true, Drivers: 2, Depth: 1, Shards: 4, Keys: 100_000, ValueLen: 8, Law: LawA, SegOps: 4_000},
	{Name: "wire-a-d16", Wire: true, Drivers: 2, Depth: 16, Shards: 4, Keys: 100_000, ValueLen: 8, Law: LawA, SegOps: 8_000},
}

// siblings pairs the two workloads that run the same store, law and seed
// with one and with two workers; the traced pass of each also measures
// the other's throughput, for store.scaling_2w_over_1w.
var siblings = map[string]string{"point-a-1w": "point-a-2w", "point-a-2w": "point-a-1w"}

func specByName(name string) (Spec, error) {
	for _, sp := range Workloads {
		if sp.Name == name {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload for smoke tests. Scale 1 is the benchmark;
// any other value produces numbers that mean nothing.
func (sp Spec) scaled(f float64) Spec {
	if f == 1 {
		return sp
	}
	sp.shrink = f
	sp.Keys = max(256, int(math.Round(float64(sp.Keys)*f)))
	sp.SegOps = max(200, int(math.Round(float64(sp.SegOps)*f)))
	return sp
}

// tailWrites is the number of acknowledged writes the durability tail
// applies, over tailRounds crash/reopen rounds.
const (
	tailWrites = 2000
	tailRounds = 5
)

// options is the fixed store configuration of the benchmark: what
// upsl-server and `upsl create` give users (DefaultOptions geometry,
// 16 keys per node, 16 levels), the simulated-PMEM cost model on, the
// background reclaimer on. Only the pool is sized per workload.
func (sp Spec) options() upskiplist.Options {
	o := upskiplist.DefaultOptions()
	o.Cost = pmem.DefaultCostModel()
	// Without the reclaimer overwritten value chunks and emptied nodes are
	// only freed by Save/Compact: a long-running service runs with it.
	o.OnlineReclaim = true
	o.Shards = sp.Shards

	// Pool: the preloaded footprint per shard — a share of a half-full
	// 56-word node plus the value's chunks for every key — times four for
	// growth, limbo and fragmentation, plus a fixed 8 MiB.
	perKey := uint64(8) + chunkWords(sp.ValueLen)
	words := uint64(sp.Keys/sp.Shards+1)*perKey*4 + 1<<20
	o.MaxChunks = (words + o.ChunkWords - 1) / o.ChunkWords
	o.PoolWords = (o.MaxChunks + 1) * o.ChunkWords
	return o
}

// chunkWords is the slab space one value of n bytes takes under the
// default geometry: a power-of-two chunk up to 32 words (header word +
// payload), chains of 32-word segments carrying 240 bytes beyond that.
func chunkWords(n int) uint64 {
	if n <= 31*8 {
		w := uint64(4)
		for w < uint64(1+(n+7)/8) {
			w *= 2
		}
		return w
	}
	return uint64((n+239)/240) * 32
}
