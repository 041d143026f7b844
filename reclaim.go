package upskiplist

import (
	"upskiplist/internal/alloc"
	"upskiplist/internal/exec"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/slab"
)

// Online reclamation at the store level: the switch, the pause and the
// counters of every shard's inline retirement (skiplist/reclaim.go). It
// is volatile: OnlineReclaim is not written to the meta sidecar, so a
// Load-ed store starts without it until EnableOnlineReclaim is called.

// EnableOnlineReclaim makes every shard's workers retire the nodes they
// empty, inline: no goroutine is started. Safe to call at any time;
// Create and Reopen call it when Options.OnlineReclaim is set.
func (s *Store) EnableOnlineReclaim() {
	for _, e := range s.shards {
		e.list.SetOnlineReclaim(true)
	}
}

// DisableOnlineReclaim stops workers from retiring the nodes they
// empty; limbo blocks stay retired until Compact or Save frees them.
// Safe to call at any time.
func (s *Store) DisableOnlineReclaim() {
	for _, e := range s.shards {
		e.list.SetOnlineReclaim(false)
	}
}

// PauseReclaim takes every shard's retire token, waiting for retires in
// flight to finish; while paused no retire and no node free touches the
// pools. Nestable — each PauseReclaim needs a matching ResumeReclaim.
func (s *Store) PauseReclaim() {
	for _, e := range s.shards {
		e.list.PauseReclaim()
	}
}

// ResumeReclaim undoes one PauseReclaim.
func (s *Store) ResumeReclaim() {
	for _, e := range s.shards {
		e.list.ResumeReclaim()
	}
}

// ReclaimStats aggregates every shard's reclamation counters. Zero when
// reclamation was never enabled.
func (s *Store) ReclaimStats() skiplist.ReclaimStats {
	var out skiplist.ReclaimStats
	for _, e := range s.shards {
		st := e.list.ReclaimStats()
		out.Retired += st.Retired
		out.Freed += st.Freed
		out.Rediscovered += st.Rediscovered
		out.LimboDepth += st.LimboDepth
		out.SnapBlocked += st.SnapBlocked
	}
	return out
}

// BlockCensus tallies provisioned blocks by kind across every shard —
// the allocated-footprint view the churn tests and the benchmark set
// against the live key count. Approximate under concurrency (racy kind reads).
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

// drainReclaimQuiesced empties every shard's node and value-chunk limbo
// without grace, under a pause with the workers quiesced, and returns
// the node blocks it freed.
func (s *Store) drainReclaimQuiesced() int {
	n := 0
	for _, e := range s.shards {
		n += e.list.DrainQuiesced(exec.NewCtx(0, 0))
		if e.vals != nil {
			e.vals.DrainQuiesced(nil)
		}
	}
	return n
}
