// Package stats defines the one snapshot shape shared by every stats
// surface in the system: the engine (Store.Stats), a worker
// (Worker.Stats), and the network server (Server.Snapshot) all return
// the same Snapshot struct, each filling the sections it owns. The
// metrics registry, the periodic server log, and the JSON bench records
// therefore all read the same fields — there is exactly one definition
// of "ops", "fences/op", or "hint hit rate".
package stats

import "upskiplist/internal/pmem"

// Snapshot is a point-in-time view of cumulative counters. Every field
// is monotonic since the owning component started (Conns and Shards are
// absolute); rates come from differencing two snapshots with Sub, and
// partial snapshots from different components combine with Merge.
//
// Producers fill only their sections and leave the rest zero:
//
//   - Store.Stats: Shards, Mem.
//   - Worker.Stats: Ops, HintSeeded/HintMissed/HintFallback.
//   - Server.Snapshot: everything (it merges the engine's snapshot in).
type Snapshot struct {
	// Topology (absolute, not cumulative).
	Shards int // keyspace shard count (1 for unsharded)
	Conns  int // currently served connections

	// Connection lifecycle.
	Accepted uint64 // connections accepted and served
	Rejected uint64 // connections refused with StatusBusy

	// Requests by opcode. BatchOps counts the operations inside client
	// BATCH frames; Batches counts the frames.
	Gets, Puts, Dels, Scans, Batches, BatchOps uint64
	Malformed                                  uint64 // malformed request frames

	// Ops counts engine operations issued: each point op and each
	// batched op once, a Scan once. A server snapshot derives it from
	// the request counters; a worker snapshot reports its private count.
	Ops uint64

	// Server group commits: Drains is the number of ApplyBatchInto
	// calls the server's connections issued for their drained singles,
	// DrainedOps the single-key requests they carried.
	Drains, DrainedOps uint64

	// Volatile predecessor-hint-cache counters: traversals seeded from a
	// validated hint, lookups with no usable entry, and seeded traversals
	// that fell back to a head-first walk.
	HintSeeded, HintMissed, HintFallback uint64

	// Traversal-locality counters (worker sections): nodes a descent
	// inspected and key slots compared during in-node searches. Divided by
	// Ops they are the cache-conscious-traversal headline metrics.
	NodesVisited, KeysProbed uint64

	// Recovery section (absolute, not cumulative): what the Reopen/Load
	// that produced this store handle did. All zero for stores built by
	// Create. Durations are in seconds so the snapshot stays a plain
	// numbers struct.
	RecoveryParallelism    int     // effective worker budget recovery ran with
	RecoveryWallSecs       float64 // end-to-end time to ready
	RecoveryAttachSecs     float64 // pool read + allocator attach (summed over shards)
	RecoveryOpenSecs       float64 // skip-list open (summed over shards)
	RecoverySweepSecs      float64 // slab crash-leak sweep (summed over shards)
	RecoveryBulkLoadSecs   float64 // logical-dump rebuild (bottom-up bulk build)
	RecoveryPagesSwept     uint64  // slab pages scanned by the sweeps
	RecoveryChunksRelinked uint64  // leaked chunks rediscovered onto free lists
	RecoveryKeysBulkLoaded uint64  // pairs restored through the bottom-up build
	RecoveryNodesBulkBuilt uint64  // data nodes the bulk build constructed

	// Mem aggregates the pmem counters of every pool: loads, stores,
	// CASes, flushes (persisted cache lines), fences, remote-NUMA
	// accesses and line-cache misses.
	Mem pmem.StatsSnapshot
}

// Merge returns s with other's cumulative counters added in — the way a
// server snapshot folds the engine's snapshot (or several workers')
// into one view. Absolute fields combine conservatively: Conns adds
// (distinct connection sets), Shards takes the max (the same store
// described twice must not double its shard count).
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := s
	if other.Shards > out.Shards {
		out.Shards = other.Shards
	}
	out.Conns += other.Conns
	out.Accepted += other.Accepted
	out.Rejected += other.Rejected
	out.Gets += other.Gets
	out.Puts += other.Puts
	out.Dels += other.Dels
	out.Scans += other.Scans
	out.Batches += other.Batches
	out.BatchOps += other.BatchOps
	out.Malformed += other.Malformed
	out.Ops += other.Ops
	out.Drains += other.Drains
	out.DrainedOps += other.DrainedOps
	out.HintSeeded += other.HintSeeded
	out.HintMissed += other.HintMissed
	out.HintFallback += other.HintFallback
	out.NodesVisited += other.NodesVisited
	out.KeysProbed += other.KeysProbed
	// Recovery fields are absolute (they describe one store's recovery);
	// merging the same store twice must not double them, so take the
	// view with the larger wall time wholesale.
	if other.RecoveryWallSecs > out.RecoveryWallSecs {
		out.RecoveryParallelism = other.RecoveryParallelism
		out.RecoveryWallSecs = other.RecoveryWallSecs
		out.RecoveryAttachSecs = other.RecoveryAttachSecs
		out.RecoveryOpenSecs = other.RecoveryOpenSecs
		out.RecoverySweepSecs = other.RecoverySweepSecs
		out.RecoveryBulkLoadSecs = other.RecoveryBulkLoadSecs
		out.RecoveryPagesSwept = other.RecoveryPagesSwept
		out.RecoveryChunksRelinked = other.RecoveryChunksRelinked
		out.RecoveryKeysBulkLoaded = other.RecoveryKeysBulkLoaded
		out.RecoveryNodesBulkBuilt = other.RecoveryNodesBulkBuilt
	}
	out.Mem.Loads += other.Mem.Loads
	out.Mem.Stores += other.Mem.Stores
	out.Mem.CASes += other.Mem.CASes
	out.Mem.Flushes += other.Mem.Flushes
	out.Mem.Fences += other.Mem.Fences
	out.Mem.RemoteOps += other.Mem.RemoteOps
	out.Mem.Misses += other.Mem.Misses
	out.Mem.Prefetches += other.Mem.Prefetches
	return out
}

// Sub returns s - prev field-wise for interval deltas. Absolute fields
// (Conns, Shards, the Recovery section) stay at s's value.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	out.Accepted -= prev.Accepted
	out.Rejected -= prev.Rejected
	out.Gets -= prev.Gets
	out.Puts -= prev.Puts
	out.Dels -= prev.Dels
	out.Scans -= prev.Scans
	out.Batches -= prev.Batches
	out.BatchOps -= prev.BatchOps
	out.Malformed -= prev.Malformed
	out.Ops -= prev.Ops
	out.Drains -= prev.Drains
	out.DrainedOps -= prev.DrainedOps
	out.HintSeeded -= prev.HintSeeded
	out.HintMissed -= prev.HintMissed
	out.HintFallback -= prev.HintFallback
	out.NodesVisited -= prev.NodesVisited
	out.KeysProbed -= prev.KeysProbed
	out.Mem.Loads -= prev.Mem.Loads
	out.Mem.Stores -= prev.Mem.Stores
	out.Mem.CASes -= prev.Mem.CASes
	out.Mem.Flushes -= prev.Mem.Flushes
	out.Mem.Fences -= prev.Mem.Fences
	out.Mem.RemoteOps -= prev.Mem.RemoteOps
	out.Mem.Misses -= prev.Mem.Misses
	out.Mem.Prefetches -= prev.Mem.Prefetches
	return out
}

// PersistedLines returns the cumulative count of cache-line flushes —
// the number of 64-byte lines pushed to the persistence domain.
func (s Snapshot) PersistedLines() uint64 { return s.Mem.Flushes }

// Fences returns the cumulative persistence-fence count, the
// group-commit amortization metric (fences / operations).
func (s Snapshot) Fences() uint64 { return s.Mem.Fences }

// AvgDrain is the mean single-key requests per connection drain — the
// fence amortization the server's group commits achieved.
func (s Snapshot) AvgDrain() float64 {
	if s.Drains == 0 {
		return 0
	}
	return float64(s.DrainedOps) / float64(s.Drains)
}

// FencesPerOp is the engine persistence fences divided by operations —
// the headline group-commit metric.
func (s Snapshot) FencesPerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.Mem.Fences) / float64(s.Ops)
}

// HintHitRate returns the fraction of hint-cache lookups that seeded a
// traversal (0 when the cache saw no lookups, e.g. when disabled).
func (s Snapshot) HintHitRate() float64 {
	total := s.HintSeeded + s.HintMissed
	if total == 0 {
		return 0
	}
	return float64(s.HintSeeded) / float64(total)
}
