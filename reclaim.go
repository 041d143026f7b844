package upskiplist

import (
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/exec"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/slab"
)

// Online reclamation at the store level: one skiplist.Reclaimer per
// shard, plus the coordination with every maintenance entry point that
// assumes a quiesced structure (Save, Compact, crash simulation,
// Reopen). The reclaimers themselves are volatile machinery — nothing
// about them is persisted, which is why OnlineReclaim is not written to
// the meta sidecar: a store Load-ed from disk starts without reclaim
// until EnableOnlineReclaim is called (the server does this from its
// -online-reclaim flag).

// EnableOnlineReclaim attaches an epoch-based background reclaimer to
// every shard. It must be called before concurrent operations begin
// (Create/Reopen call it when Options.OnlineReclaim is set; call it
// right after Load). Idempotent.
//
// Once enabled, fully-tombstoned nodes are retired concurrently with
// the workload — unlinked under the same persistent intent log the
// quiesced Compact uses, parked on a volatile limbo list, and returned
// to the allocator's free lists after a grace period proves no worker
// can still reach them. Compact remains available as a quiesced
// fallback and collects anything the reclaimers had in flight.
func (s *Store) EnableOnlineReclaim() {
	for si, e := range s.shards {
		if e.list.Reclaimer() != nil {
			continue
		}
		node := 0
		if s.opts.Shards > 1 && s.opts.Placement == PerNode {
			node = s.topo.ShardNode(si)
		}
		rec := e.list.StartReclaim(skiplist.ReclaimConfig{
			Interval:  s.opts.ReclaimInterval,
			ScanNodes: s.opts.ReclaimScanNodes,
			ThreadID:  0, // frees never touch the per-thread alloc log
			Node:      node,
		})
		if m := s.met.Load(); m != nil && m.graceWait != nil {
			h := m.graceWait
			rec.SetGraceObserver(func(d time.Duration) { h.Observe(d.Nanoseconds()) })
		}
	}
}

// DisableOnlineReclaim stops every shard's reclaimer and waits for the
// goroutines to exit. Blocks not yet past their grace period stay
// retired (unreachable) in persistent memory; Compact or a future
// reclaimer collects them. Idempotent.
func (s *Store) DisableOnlineReclaim() {
	for _, e := range s.shards {
		if r := e.list.Reclaimer(); r != nil {
			r.Stop()
		}
	}
}

// PauseReclaim blocks new reclaim cycles on every shard and waits for
// in-flight ones to finish; while paused the reclaimers mutate nothing.
// Nestable — each PauseReclaim needs a matching ResumeReclaim. No-op
// when reclamation is off.
func (s *Store) PauseReclaim() {
	for _, e := range s.shards {
		if r := e.list.Reclaimer(); r != nil {
			r.Pause()
		}
	}
}

// ResumeReclaim undoes one PauseReclaim.
func (s *Store) ResumeReclaim() {
	for _, e := range s.shards {
		if r := e.list.Reclaimer(); r != nil {
			r.Resume()
		}
	}
}

// ReclaimStats aggregates every shard's reclamation counters. Zero when
// reclamation was never enabled.
func (s *Store) ReclaimStats() skiplist.ReclaimStats {
	var out skiplist.ReclaimStats
	for _, e := range s.shards {
		if r := e.list.Reclaimer(); r != nil {
			st := r.Stats()
			out.Retired += st.Retired
			out.Freed += st.Freed
			out.Rediscovered += st.Rediscovered
			out.LimboDepth += st.LimboDepth
			out.SnapBlocked += st.SnapBlocked
		}
	}
	return out
}

// BlockCensus tallies provisioned blocks by kind across every shard —
// the allocated-footprint view the churn experiment plots against the
// live key count. Approximate under concurrency (racy kind reads).
func (s *Store) BlockCensus() alloc.BlockCensus {
	var out alloc.BlockCensus
	for _, e := range s.shards {
		c := e.alloc.Census()
		out.Free += c.Free
		out.Node += c.Node
		out.Retired += c.Retired
		out.Slab += c.Slab
		out.Total += c.Total
	}
	return out
}

// SlabStats aggregates the value-arena counters across every shard:
// chunk alloc/free/retire traffic, limbo depth, page growth, extents
// owned, and what the last startup sweep scanned and reclaimed. Approximate under concurrency, like
// BlockCensus.
func (s *Store) SlabStats() slab.Stats {
	var out slab.Stats
	for _, e := range s.shards {
		if e.vals == nil {
			continue
		}
		st := e.vals.Stats()
		out.ChunksAlloced += st.ChunksAlloced
		out.ChunksFreed += st.ChunksFreed
		out.ChunksRetired += st.ChunksRetired
		out.LimboChunks += st.LimboChunks
		out.Pages += st.Pages
		out.Extents += st.Extents
		out.SweepRelinked += st.SweepRelinked
		out.SweepScanned += st.SweepScanned
	}
	return out
}

// SlabClassStats returns the value arena's class table — chunk size,
// page span, chunks per page — with each class's page count summed over
// the shards (every shard has the same geometry, hence the same table).
func (s *Store) SlabClassStats() []slab.ClassStat {
	var out []slab.ClassStat
	for _, e := range s.shards {
		if e.vals == nil {
			continue
		}
		cs := e.vals.ClassStats()
		if out == nil {
			out = cs
			continue
		}
		for i := range cs {
			out[i].Pages += cs[i].Pages
		}
	}
	return out
}

// drainReclaimQuiesced frees every limbo block immediately, skipping
// grace periods, and likewise drains every shard's slab-arena limbo so
// a saved image carries no retired-but-unfreed value chunks. Caller
// must have paused the reclaimers AND quiesced all workers. Returns the
// number of blocks freed (node blocks only; chunk frees are interior to
// their slab pages).
func (s *Store) drainReclaimQuiesced() int {
	n := 0
	for _, e := range s.shards {
		if r := e.list.Reclaimer(); r != nil {
			n += r.DrainQuiesced(exec.NewCtx(0, 0))
		}
		if e.vals != nil {
			e.vals.DrainQuiesced(nil)
		}
	}
	return n
}
