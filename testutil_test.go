package upskiplist

import (
	"encoding/binary"

	"upskiplist/internal/pmem"
)

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
