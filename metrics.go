package upskiplist

import (
	"strconv"
	"time"

	"upskiplist/internal/metrics"
)

// opKind indexes the per-op-kind latency histograms of a storeMetrics.
type opKind int

const (
	opKindInsert opKind = iota
	opKindGet
	opKindContains
	opKindRemove
	opKindScan
	opKindCount
)

var opKindNames = [opKindCount]string{"insert", "get", "contains", "remove", "scan"}

// storeMetrics holds the engine's registered instruments. It is built
// once by EnableMetrics and published through an atomic pointer, so the
// per-op cost when metrics are off is a single pointer load and branch.
type storeMetrics struct {
	// opLat is point-op latency by kind (upsl_op_seconds{op=...}).
	opLat [opKindCount]*metrics.Histogram
	// batchLat is the latency of one ApplyBatch group commit
	// (upsl_batch_commit_seconds); batchOps counts the operations those
	// commits carried (upsl_batch_ops_total).
	batchLat *metrics.Histogram
	batchOps *metrics.Counter
	// shardOps counts ops routed to each shard (upsl_shard_ops_total).
	shardOps []*metrics.Counter
	// graceWait observes, per freed limbo batch, the wall time between
	// batch close and free (upsl_reclaim_grace_wait_seconds). The
	// remaining reclaim series are GaugeFuncs sampling the lists'
	// own counters at scrape time, so they need no hot-path hook at all.
	graceWait *metrics.Histogram
}

// EnableMetrics registers the engine's instruments with reg and starts
// recording: per-op-kind point-op latency, batch-commit latency and
// sizes, persistence-fence waits (observed inside every shard's pools),
// and per-shard routing counters. Recording is wait-free; enabling is
// safe while workers are running (ops already in flight may miss the
// first samples). Enabling twice with the same registry is idempotent.
func (s *Store) EnableMetrics(reg *metrics.Registry) {
	m := &storeMetrics{}
	for k := opKind(0); k < opKindCount; k++ {
		m.opLat[k] = reg.Histogram("upsl_op_seconds",
			"engine point-op latency by kind",
			metrics.Labels{"op": opKindNames[k]})
	}
	m.batchLat = reg.Histogram("upsl_batch_commit_seconds",
		"latency of one group-committed engine batch", nil)
	m.batchOps = reg.Counter("upsl_batch_ops_total",
		"operations applied inside group-committed batches", nil)
	m.shardOps = make([]*metrics.Counter, len(s.shards))
	fence := reg.Histogram("upsl_fence_wait_seconds",
		"persistence fence wait time", nil)
	for si, e := range s.shards {
		m.shardOps[si] = reg.Counter("upsl_shard_ops_total",
			"ops routed to each keyspace shard",
			metrics.Labels{"shard": strconv.Itoa(si)})
		for _, p := range e.pools {
			p.SetFenceObserver(fence.Hist())
		}
	}
	m.graceWait = reg.Histogram("upsl_reclaim_grace_wait_seconds",
		"wall time a limbo batch waited for its grace period before being freed", nil)
	reg.GaugeFunc("upsl_reclaim_nodes_retired_total",
		"fully-tombstoned nodes retired (unlinked onto limbo) by online reclamation",
		nil, func() float64 { return float64(s.ReclaimStats().Retired) })
	reg.GaugeFunc("upsl_reclaim_blocks_freed_total",
		"retired blocks returned to allocator free lists by online reclamation",
		nil, func() float64 { return float64(s.ReclaimStats().Freed) })
	reg.GaugeFunc("upsl_reclaim_limbo_depth",
		"retired blocks currently awaiting their grace period",
		nil, func() float64 { return float64(s.ReclaimStats().LimboDepth) })
	reg.GaugeFunc("upsl_mem_prefetches_total",
		"charged foresight prefetch issues across every pool (resident-line prefetches are free and uncounted)",
		nil, func() float64 { return float64(s.Stats().Mem.Prefetches) })
	reg.GaugeFunc("upsl_slab_extents",
		"allocator chunks owned whole by the value arena",
		nil, func() float64 { return float64(s.SlabStats().Extents) })
	for i, cl := range s.SlabClassStats() {
		reg.GaugeFunc("upsl_slab_pages",
			"value-arena pages by chunk class (words per chunk)",
			metrics.Labels{"class": strconv.FormatUint(cl.ChunkWords, 10)},
			func() float64 { return float64(s.SlabClassStats()[i].Pages) })
	}
	reg.GaugeFunc("upsl_slab_limbo_chunks",
		"retired value chunks awaiting their grace period",
		nil, func() float64 { return float64(s.SlabStats().LimboChunks) })
	reg.GaugeFunc("upsl_snapshots_open",
		"currently open MVCC snapshots",
		nil, func() float64 { return float64(s.SnapshotsOpen()) })
	reg.GaugeFunc("upsl_snapshot_oldest_era_age_seconds",
		"age of the oldest open snapshot's pinned era (0 when none open)",
		nil, func() float64 { return s.OldestSnapshotAge().Seconds() })
	reg.GaugeFunc("upsl_snapshot_log_entries",
		"version-log entries held in memory for the open snapshots, summed over shards",
		nil, func() float64 { return float64(s.snapshotLogEntries()) })
	reg.GaugeFunc("upsl_reclaim_snapshot_blocked_batches",
		"limbo batches whose free is currently held back by a pinned snapshot",
		nil, func() float64 { return float64(s.ReclaimStats().SnapBlocked) })
	// Recovery series sample the immutable RecoveryStats of the
	// Reopen/Load that produced this handle (all zero after Create).
	for _, ph := range []struct {
		name string
		d    func() time.Duration
	}{
		{"attach", func() time.Duration { return s.recovery.Attach }},
		{"open", func() time.Duration { return s.recovery.Open }},
		{"sweep", func() time.Duration { return s.recovery.Sweep }},
		{"bulkload", func() time.Duration { return s.recovery.BulkLoad }},
		{"wall", func() time.Duration { return s.recovery.Wall }},
	} {
		reg.GaugeFunc("upsl_recovery_phase_seconds",
			"time the last recovery spent in each phase (per-shard phases summed; wall is end-to-end)",
			metrics.Labels{"phase": ph.name},
			func() float64 { return ph.d().Seconds() })
	}
	reg.GaugeFunc("upsl_recovery_pages_swept_total",
		"slab pages scanned by the last recovery's crash-leak sweeps",
		nil, func() float64 { return float64(s.recovery.PagesSwept) })
	reg.GaugeFunc("upsl_recovery_chunks_relinked_total",
		"leaked chunks the last recovery relinked onto free lists",
		nil, func() float64 { return float64(s.recovery.ChunksRelinked) })
	reg.GaugeFunc("upsl_recovery_keys_loaded_total",
		"pairs the last recovery restored from a logical dump",
		nil, func() float64 { return float64(s.recovery.KeysBulkLoaded) })
	const repairs = "deferred repairs since open, summed over shards: stale nodes claimed, towers completed, interrupted splits repaired"
	reg.GaugeFunc("upsl_deferred_repairs_total", repairs, metrics.Labels{"kind": "claim"},
		func() float64 { return float64(s.DeferredRepairs().Claims) })
	reg.GaugeFunc("upsl_deferred_repairs_total", repairs, metrics.Labels{"kind": "tower"},
		func() float64 { return float64(s.DeferredRepairs().Inserts) })
	reg.GaugeFunc("upsl_deferred_repairs_total", repairs, metrics.Labels{"kind": "split"},
		func() float64 { return float64(s.DeferredRepairs().Splits) })
	reg.GaugeFunc("upsl_split_repair_keys_erased_total", "keys split repair erased by range since open, summed over shards",
		nil, func() float64 { return float64(s.DeferredRepairs().SplitErased) })
	s.met.Store(m)
	// Every list's limbo reports its grace-period waits.
	for _, e := range s.shards {
		h := m.graceWait
		e.list.SetGraceObserver(func(d time.Duration) { h.Observe(d.Nanoseconds()) })
	}
}

// DisableMetrics stops recording (instruments stay registered; their
// values freeze). Ops already past the enable check may record a few
// more samples.
func (s *Store) DisableMetrics() {
	s.met.Store(nil)
	for _, e := range s.shards {
		for _, p := range e.pools {
			p.SetFenceObserver(nil)
		}
	}
}
