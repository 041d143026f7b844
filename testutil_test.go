package upskiplist

import (
	"encoding/binary"
	"fmt"
	"testing"

	"upskiplist/internal/pmem"
)

// crashStore is a store under crashstep with the worker its scenario
// drives: create makes a store and returns every pool of every shard,
// restart reopens it — the recovery — with a new worker.
type crashStore struct {
	*Store
	w *Worker
}

func (c *crashStore) create(t *testing.T, o Options) []*pmem.Pool {
	t.Helper()
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	c.reset(st)
	return st.Pools()
}

func (c *crashStore) reset(st *Store) { c.Store, c.w = st, st.NewWorker(0) }

func (c *crashStore) restart(t *testing.T) {
	t.Helper()
	st, err := c.Reopen()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	c.reset(st)
}

// footprint is what a store owns once its limbo was drained and a
// Reopen swept it: the block census, the arena's extents, the pages the
// sweep scanned and the chunks it relinked, and the pages of every class.
type footprint struct {
	node, slab, used         int
	extents, pages, relinked uint64
	classPages               string
}

// footprint drains the limbo, reopens the store and reads its footprint:
// a crashstep Census for scenarios over the value arena.
func (c *crashStore) footprint(t *testing.T) any {
	c.drainReclaimQuiesced()
	c.restart(t)
	b, s := c.BlockCensus(), c.SlabStats()
	return footprint{b.Node, b.Slab, b.Total - b.Free, s.Extents, s.SweepScanned, s.SweepRelinked, fmt.Sprint(c.SlabClassStats())}
}

// u64v is the 8-byte little-endian encoding of v — the PutU64
// representation — for tests that drive the byte API with word-shaped
// workloads.
func u64v(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// poolUnits is the cost model's charge ledger summed over pools: the
// model units the simulator charged for every access they counted.
func poolUnits(c *pmem.CostModel, pools []*pmem.Pool) uint64 {
	var total uint64
	for _, p := range pools {
		s := p.Stats().Snapshot()
		total += (s.Loads-s.Misses)*uint64(c.HitPenalty) +
			s.Misses*uint64(c.LoadPenalty) +
			s.RemoteOps*uint64(c.RemotePenalty) +
			(s.Stores+s.CASes)*uint64(c.StorePenalty) +
			s.Flushes*uint64(c.FlushPenalty) +
			s.Fences*uint64(c.FencePenalty) +
			s.Prefetches*uint64(c.PrefetchPenalty)
	}
	return total
}
