package server

import (
	"sync/atomic"
	"time"

	"upskiplist"
	"upskiplist/internal/stats"
)

// Snapshot is the shared stats.Snapshot shape. The server fills every
// section: its own connection and request counters, the drain and
// hint-cache counters of every connection it served, and the engine's
// topology and Mem sections merged in from Store.Stats. Ops is derived
// from the request counters (singles + scans + client-batch interior
// ops).
type Snapshot = stats.Snapshot

// Snapshot samples the server and engine counters. Safe to call
// concurrently with serving; the sample is per-counter consistent.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Accepted:   s.ctr.accepted.Load(),
		Rejected:   s.ctr.rejected.Load(),
		Gets:       s.ctr.gets.Load(),
		Puts:       s.ctr.puts.Load(),
		Dels:       s.ctr.dels.Load(),
		Scans:      s.ctr.scans.Load(),
		Batches:    s.ctr.batches.Load(),
		BatchOps:   s.ctr.batchOps.Load(),
		Malformed:  s.ctr.malf.Load(),
		Drains:     s.ctr.drains.Load(),
		DrainedOps: s.ctr.drainedOps.Load(),
	}
	snap.Ops = snap.Gets + snap.Puts + snap.Dels + snap.Scans + snap.BatchOps
	s.mu.Lock()
	snap.Conns = len(s.conns)
	s.closed.addTo(&snap)
	for c := range s.conns {
		c.tally.addTo(&snap)
	}
	s.mu.Unlock()
	return snap.Merge(s.st.Stats()) // Shards and Mem come from the engine
}

// workerTally is a connection worker's cumulative traversal counters,
// published once per pass so Snapshot can read them from another
// goroutine. The server's copy accumulates connections that closed.
type workerTally struct {
	hintSeeded, hintMissed, hintFallback, nodesVisited, keysProbed atomic.Uint64
}

func (t *workerTally) publish(ws upskiplist.WorkerStats) {
	t.hintSeeded.Store(ws.HintSeeded)
	t.hintMissed.Store(ws.HintMissed)
	t.hintFallback.Store(ws.HintFallback)
	t.nodesVisited.Store(ws.NodesVisited)
	t.keysProbed.Store(ws.KeysProbed)
}

func (t *workerTally) add(o *workerTally) {
	t.hintSeeded.Add(o.hintSeeded.Load())
	t.hintMissed.Add(o.hintMissed.Load())
	t.hintFallback.Add(o.hintFallback.Load())
	t.nodesVisited.Add(o.nodesVisited.Load())
	t.keysProbed.Add(o.keysProbed.Load())
}

func (t *workerTally) addTo(snap *Snapshot) {
	snap.HintSeeded += t.hintSeeded.Load()
	snap.HintMissed += t.hintMissed.Load()
	snap.HintFallback += t.hintFallback.Load()
	snap.NodesVisited += t.nodesVisited.Load()
	snap.KeysProbed += t.keysProbed.Load()
}

// statsLoop logs one line per StatsInterval with the interval's deltas.
func (s *Server) statsLoop() {
	t := time.NewTicker(s.cfg.StatsInterval)
	defer t.Stop()
	prev := s.Snapshot()
	for {
		select {
		case <-s.statsQuit:
			return
		case <-t.C:
			cur := s.Snapshot()
			s.logSnapshot("interval", cur.Sub(prev))
			prev = cur
		}
	}
}

// logStats logs the cumulative counters under the given label.
func (s *Server) logStats(label string) {
	s.logSnapshot(label, s.Snapshot())
}

func (s *Server) logSnapshot(label string, v Snapshot) {
	s.cfg.Logf("upsl-server %s: conns=%d ops=%d (get=%d put=%d del=%d scan=%d batch=%d/%d) "+
		"drains=%d avg_drain=%.1f fences/op=%.3f persisted_lines=%d hint_hit=%.2f rejected=%d malformed=%d",
		label, v.Conns, v.Ops, v.Gets, v.Puts, v.Dels, v.Scans, v.Batches, v.BatchOps,
		v.Drains, v.AvgDrain(), v.FencesPerOp(), v.PersistedLines(), v.HintHitRate(), v.Rejected, v.Malformed)
}
