package upskiplist

import (
	"math/rand"
	"testing"
	"time"

	"upskiplist/internal/skiplist"
)

// Churn workload: fresh keys are inserted at the leading edge of the
// keyspace while victims are removed UNIFORMLY AT RANDOM from the live
// set, holding the live population constant. Random removal scatters
// fully-tombstoned nodes throughout the live span — the workload class
// that separates online reclamation from tombstone-only removal. A dead
// node between two live ones costs every traversal a bottom-level hop
// (and its towers clutter the upper levels), so without reclamation
// both the allocated footprint AND per-op traversal work grow without
// bound, while with it both stay pinned to the live set.

const (
	churnWindow   = 2000 // live keys at any moment
	churnPerPhase = 4000 // keys inserted (and removed) per phase
	churnPhases   = 8    // 2 warmup + 6 measured
	churnWarmup   = 2    // phases before the steady-state census
)

func churnOptions(reclaim bool) Options {
	o := DefaultOptions()
	// Height provisioned for the steady-state LIVE set (2^8 nodes x 8
	// keys covers the 2000-key window with headroom) — the configuration
	// online reclamation makes sustainable. Without reclamation the node
	// population outgrows the tower index and top-level spans stretch
	// linearly with the dead population.
	o.MaxHeight = 8
	o.KeysPerNode = 8
	o.PoolWords = 1 << 21
	o.ChunkWords = 1 << 13
	o.MaxChunks = o.PoolWords/o.ChunkWords + 16
	o.Cost = perfCost() // PMEM-realistic load penalties: dead-node hops cost real time
	o.OnlineReclaim = reclaim
	// Steady-state retirement rides the workers' retire-on-remove
	// reports; the sweep is only the leak backstop, so keep its duty
	// cycle small — on a single-CPU host an aggressive sweep steals the
	// worker's CPU through the simulated PMEM load penalties.
	o.ReclaimInterval = time.Millisecond
	o.ReclaimScanNodes = 32
	return o
}

// churnTuning is the read path both churn stores run.
func churnTuning() skiplist.Tuning {
	return skiplist.Tuning{
		// Hints off (in BOTH configs) so every op pays the real traversal:
		// the churn experiment measures how traversal cost scales with the
		// dead-node population, and the hint cache short-circuits exactly
		// that path. With hints on, point ops are near-O(1) regardless of
		// dead prefix and the comparison measures nothing.
		NoHints: true,
		// Prefetching off for the same reason: the descent prefetch
		// overlaps each dead-node hop's line fetch with the previous
		// node's examine, deflating exactly the per-hop cost whose
		// growth this experiment measures.
		NoPrefetch: true,
		// Classic p = 1/2 towers: the MaxHeight=8 provisioning above and
		// the dead-tower-clutter analysis assume Pugh geometry, and the
		// sparse default would change how much of the dead population
		// reaches the index levels — an orthogonal axis TestReadPathRent
		// owns.
		TowerBranch: 2,
	}
}

// churnState tracks the live set so removals and reads can be sampled
// uniformly from it.
type churnState struct {
	alive []uint64
	hi    uint64 // next fresh key
}

// churnPhase performs churnPerPhase insert+remove+2×get rounds and
// returns the phase's traversal work: nodes the worker's descents
// visited per operation. Unlike throughput this is a count the worker
// keeps itself — it does not depend on how the host schedules the
// worker against the reclaimer.
func churnPhase(t *testing.T, w *Worker, rng *rand.Rand, cs *churnState) float64 {
	t.Helper()
	before := w.Stats()
	for i := 0; i < churnPerPhase; i++ {
		if _, _, err := w.PutU64(cs.hi, cs.hi); err != nil {
			t.Fatal(err)
		}
		cs.alive = append(cs.alive, cs.hi)
		cs.hi++
		j := rng.Intn(len(cs.alive))
		victim := cs.alive[j]
		cs.alive[j] = cs.alive[len(cs.alive)-1]
		cs.alive = cs.alive[:len(cs.alive)-1]
		if _, _, err := w.RemoveU64(victim); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			if _, ok := w.GetU64(cs.alive[rng.Intn(len(cs.alive))]); !ok {
				t.Fatal("live key missing")
			}
		}
	}
	d := w.Stats().Sub(before)
	return float64(d.NodesVisited) / float64(d.Ops)
}

// runChurn executes warmup + measured phases, returning the final-phase
// nodes visited per op, the allocated-block counts (KindNode + KindRetired) after
// warmup and at the end, and the closing count of nodes still holding
// at least one live key.
func runChurn(t *testing.T, st *Store) (finalHops float64, warmupAlloc, finalAlloc, liveNodes int) {
	t.Helper()
	w := st.NewWorker(1)
	rng := rand.New(rand.NewSource(42))
	cs := &churnState{hi: 1}
	for k := 0; k < churnWindow; k++ {
		if _, _, err := w.PutU64(cs.hi, cs.hi); err != nil {
			t.Fatal(err)
		}
		cs.alive = append(cs.alive, cs.hi)
		cs.hi++
	}
	// Warmup: node lifetimes under random removal are longer than one
	// phase, so the live-node population needs a couple of phases to
	// reach equilibrium (and the reclaimer to catch up) before the
	// steady-state census.
	for p := 0; p < churnWarmup; p++ {
		churnPhase(t, w, rng, cs)
	}
	settleReclaim(st)
	c := st.BlockCensus()
	warmupAlloc = c.Node + c.Retired
	var hops float64
	for p := churnWarmup; p < churnPhases; p++ {
		hops = churnPhase(t, w, rng, cs)
	}
	settleReclaim(st)
	c = st.BlockCensus()
	finalAlloc = c.Node + c.Retired
	// Count bottom-level nodes still holding at least one live key — the
	// footprint a perfect reclaimer would converge to.
	st.PauseReclaim()
	stats := st.ShardList(0).Stats(w.Ctx())
	st.ResumeReclaim()
	liveNodes = stats.Nodes - stats.EmptyNodes
	return hops, warmupAlloc, finalAlloc, liveNodes
}

// settleReclaim waits for an attached reclaimer to drain its pipeline
// (retire backlog + one grace period). No-op without reclaim.
func settleReclaim(st *Store) {
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

// TestChurnSteadyState is the headline acceptance check for online
// reclamation:
//
//   - with reclamation, the allocated footprint stays bounded — within
//     2x of the post-warmup steady state, and within 2x of the nodes
//     actually holding live keys;
//   - without reclamation the footprint grows without bound (each phase
//     adds its dead nodes: the final footprint at least doubles the
//     post-warmup one, with dead nodes outnumbering live ones);
//   - at that point — the baseline having at least doubled its dead-node
//     population — an operation on the reclaiming store must visit at
//     most 1/1.3 of the nodes one on the baseline visits, because its
//     traversals no longer hop through dead nodes scattered across the
//     live span.
func TestChurnSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("churn steady-state run")
	}
	baseSt, err := Create(churnOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	baseSt.SetTuning(churnTuning())
	baseHops, baseWarm, baseFinal, baseLive := runChurn(t, baseSt)

	recSt, err := Create(churnOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	recSt.SetTuning(churnTuning())
	recHops, recWarm, recFinal, recLive := runChurn(t, recSt)
	recSt.DisableOnlineReclaim()

	t.Logf("baseline: warmup=%d final=%d live-nodes=%d nodes/op=%.1f", baseWarm, baseFinal, baseLive, baseHops)
	t.Logf("reclaim:  warmup=%d final=%d live-nodes=%d nodes/op=%.1f (freed=%d)",
		recWarm, recFinal, recLive, recHops, recSt.ReclaimStats().Freed)

	// Unbounded growth without reclamation.
	if baseFinal < 2*baseWarm {
		t.Errorf("baseline footprint did not keep growing: warmup %d -> final %d", baseWarm, baseFinal)
	}
	if baseFinal < 2*baseLive {
		t.Errorf("baseline dead population did not double the live one: alloc %d, live nodes %d", baseFinal, baseLive)
	}
	// Bounded footprint with reclamation.
	if recFinal > 2*recWarm {
		t.Errorf("reclaim footprint grew: warmup %d -> final %d (> 2x)", recWarm, recFinal)
	}
	if recFinal > 2*recLive {
		t.Errorf("reclaim footprint %d exceeds 2x live nodes %d", recFinal, recLive)
	}
	if recSt.ReclaimStats().Freed == 0 {
		t.Error("reclaimer freed nothing during churn")
	}
	// Traversal work at the baseline's doubled-dead-population point.
	if recHops > baseHops/1.3 {
		t.Errorf("churn with reclaim visits %.1f nodes/op, more than baseline %.1f / 1.3", recHops, baseHops)
	}

	// Both stores remain correct.
	for _, st := range []*Store{baseSt, recSt} {
		w := st.NewWorker(2)
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
