package upskiplist

import "upskiplist/internal/stats"

// StoreStats is the store's view of the shared stats snapshot
// (internal/stats.Snapshot): every stats surface in the system — engine,
// worker, network server — fills sections of the same struct, so the
// metrics registry, the periodic server log and the JSON bench records
// all read the same fields. A store snapshot fills Shards and Mem (the
// pmem counters aggregated over every pool of every shard); combine
// snapshots from several components with Merge, and difference two of
// them with Sub for interval rates.
type StoreStats = stats.Snapshot

// Stats aggregates the pmem counters of every shard's pools. It may be
// called concurrently with workers; the snapshot is per-counter
// consistent, not cross-counter consistent. It is exact for every worker
// that is between calls: a worker counts its accesses privately and
// publishes them as each public call returns (pmem.Acc.Publish), so only
// a call still in flight can hold counts back.
func (s *Store) Stats() StoreStats {
	out := StoreStats{Shards: len(s.shards)}
	rec := s.recovery
	out.RecoveryWallSecs = rec.Wall.Seconds()
	out.RecoveryAttachSecs = rec.Attach.Seconds()
	out.RecoveryOpenSecs = rec.Open.Seconds()
	out.RecoverySweepSecs = rec.Sweep.Seconds()
	out.RecoveryBulkLoadSecs = rec.BulkLoad.Seconds()
	out.RecoveryPagesSwept = rec.PagesSwept
	out.RecoveryChunksRelinked = rec.ChunksRelinked
	out.RecoveryKeysBulkLoaded = rec.KeysBulkLoaded
	out.RecoveryNodesBulkBuilt = rec.NodesBulkBuilt
	for _, e := range s.shards {
		for _, p := range e.pools {
			snap := p.Stats().Snapshot()
			out.Mem.Loads += snap.Loads
			out.Mem.Stores += snap.Stores
			out.Mem.CASes += snap.CASes
			out.Mem.Flushes += snap.Flushes
			out.Mem.Fences += snap.Fences
			out.Mem.RemoteOps += snap.RemoteOps
			out.Mem.Misses += snap.Misses
			out.Mem.Prefetches += snap.Prefetches
		}
	}
	return out
}

// ShardOf returns the index of the shard owning key (always 0 for an
// unsharded store).
func (s *Store) ShardOf(key uint64) int { return s.shardOf(key) }

// WorkerStats is the worker's view of the shared stats snapshot. Like
// the worker itself it is single-goroutine state: only the owning
// goroutine may call Stats, and cross-thread publication (e.g. a server
// connection exporting its worker's counters) must copy the snapshot
// through its own synchronization.
//
// A worker snapshot fills Ops (each point op and each batched op counts
// once; a Scan counts once regardless of how many pairs it visits) and
// the volatile predecessor-hint-cache counters summed across the
// worker's per-shard contexts.
type WorkerStats = stats.Snapshot

// Stats snapshots the worker's counters. Owner-goroutine only.
func (w *Worker) Stats() WorkerStats {
	ws := WorkerStats{Ops: w.ops}
	for _, ctx := range w.ctxs {
		ws.HintSeeded += ctx.Hints.Seeded
		ws.HintMissed += ctx.Hints.Missed
		ws.HintFallback += ctx.Hints.Fallback
		ws.NodesVisited += ctx.Path.NodesVisited
		ws.KeysProbed += ctx.Path.KeysProbed
	}
	return ws
}
