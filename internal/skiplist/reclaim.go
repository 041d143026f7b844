package skiplist

import (
	"sync"
	"sync/atomic"
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/exec"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
)

// Online epoch-based node reclamation.
//
// A long-running server never gets the quiesced store Compact demands,
// so this file runs the same retirement protocol (compact.go: retire,
// freeRetired, one intent log, one crash repair) concurrently and
// continuously, and puts a grace period between the two halves.
//
// One Reclaimer goroutine per list (= per shard) runs the whole
// pipeline; having a single retiring thread per list is what keeps the
// unlink walk free of retired predecessors and lets it own the
// single-slot intent log. The life of a victim:
//
//	tombstoned node ──tryRetire──▶ KindRetired, marked, unlinked
//	        │                               │
//	 (intent log state=1                    ▼
//	  covers this window)          volatile limbo batch, tagged with
//	                               the reclamation era at batch close
//	                                        │  grace: every pinned
//	                                        ▼  worker passes the tag
//	               state=2 log per block ▶ alloc.Free ▶ arena free list
//
// Concurrency safety rests on four mechanisms. The hot path pays for
// the first on every list, since snapshots and value-chunk retirement
// share the domain; the other three only once reclamation has ever been
// enabled:
//
//  1. Era pins. Workers stamp the domain era on op entry (SkipList.pin).
//     A limbo batch is freed only once every pinned era is past the
//     batch tag, so any worker that could still hold a pointer to a
//     victim — from traversal, a hint probe, or an iterator cursor —
//     has exited. The hint generation is bumped at batch CLOSE, before
//     the era advances: a worker that validated the old generation is
//     pinned at or below the tag, so the same grace period that
//     protects pointers also retires stale hints before the memory is
//     reused.
//
//  2. Kind flip + split count set to splitRetired, under the node's
//     write lock. The flip withdraws the node from the abstract set
//     (traversals skip KindRetired; hint probes reject it); the new split
//     count invalidates every in-flight operation that captured the node
//     as its covering predecessor — they fail validation, retraverse,
//     and the retry terminates because the traversal now skips the
//     victim. It is a value no live node has, not an increment: a
//     traversal loads kind and split count separately, and one that read
//     the kind just before the flip would take an incremented count for
//     current, pass every later check, and write into the victim.
//
//  3. Retirement marks (bit 0 of the victim's own next words, set while
//     the write lock is held). Any insert that read a victim's next
//     pointer as its CAS expectation loses: the marked word never
//     equals a clean pointer. This closes the lost-insert race — a new
//     node can never be published behind a node being unlinked.
//     linkHigherLevels takes the read lock around its tower stores for
//     the same reason: a plain store would overwrite the mark.
//
//  4. The intent log. State 1 covers tombstone durability through
//     unlink; state 2 covers each individual free. A crash in either
//     window is repaired at Open by recoverCompaction. Between the
//     windows a victim is KindRetired on a volatile limbo list; a crash
//     there leaks it in pmem, fully unlinked — the next reclaimer's
//     startup scan (RetiredBlocks) re-discovers and frees such blocks,
//     no grace needed, because a restart is itself a grace period.
type Reclaimer struct {
	s   *SkipList
	cfg ReclaimConfig
	ctx *exec.Ctx

	// reportCh carries retire-on-traversal candidates from workers
	// (Remove noticing it killed a node's last live value). Best-effort:
	// overflow is dropped, the cursor sweep finds leftovers.
	reportCh chan riv.Ptr

	// Pause/stop handshake. pauses counts nested Pause calls (Save and
	// Compact both pause; the server's shutdown may already have); busy
	// is true while a cycle is mutating structures, so Pause returns only
	// at a cycle boundary and the pauser may then treat reclaimer state
	// as frozen.
	mu       sync.Mutex
	cond     *sync.Cond
	pauses   int
	busy     bool
	stopping bool

	quit chan struct{}
	done chan struct{}

	cursor uint64 // bottom-level sweep position (next first-key to visit)

	limbo      []riv.Ptr // open batch: retired, unlinked, not yet era-tagged
	pending    []limboBatch
	sinceClose int // cycles the open batch has been accumulating

	// Adaptive sweep pacing: when sweeps keep finding nothing, the
	// cursor walk backs off exponentially (it reads node contents
	// through the cost model, so an always-on sweep taxes a quiescent
	// store); any worker report or successful retirement snaps it back
	// to full rate.
	sweepIdle int // consecutive empty sweeps, capped
	sweepSkip int // cycles to skip before the next sweep

	// grace is the optional grace-wait observer (metrics histogram),
	// atomic so it can be installed while the goroutine runs.
	grace atomic.Pointer[func(time.Duration)]

	retired      atomic.Int64
	freed        atomic.Int64
	rediscovered atomic.Int64
	limboDepth   atomic.Int64
	snapBlocked  atomic.Int64
}

type limboBatch struct {
	ptrs   []riv.Ptr
	era    uint64
	closed time.Time
}

// reclaimMaxBatchCycles bounds how long an undersized limbo batch stays
// open: even under a trickle of retirements the batch closes (and the
// grace clock starts) within this many cycles.
const reclaimMaxBatchCycles = 64

// ReclaimConfig tunes a list's reclaimer. Zero values take defaults.
type ReclaimConfig struct {
	// Interval is the sweep cycle period (default 200µs). Each cycle
	// drains reported candidates, examines up to ScanNodes bottom-level
	// nodes, and frees every limbo batch whose grace period has expired
	// — so the reclaimer's steady-state cost is rate-limited regardless
	// of list size.
	Interval time.Duration
	// ScanNodes bounds the per-cycle cursor walk (default 64).
	ScanNodes int
	// FreeBatch is the target limbo batch size (default 128). Closing a
	// batch bumps the hint generation — wiping every worker's hint cache
	// — so batches close only when they reach FreeBatch or after a
	// bounded number of cycles, whichever comes first. Larger batches
	// trade reclamation latency for fewer hint wipes.
	FreeBatch int
	// ThreadID/Node identify the reclaimer's own exec context. The
	// reclaimer never allocates, so the thread ID only selects the arena
	// its frees append to.
	ThreadID int
	Node     int
}

func (c ReclaimConfig) withDefaults() ReclaimConfig {
	if c.Interval <= 0 {
		c.Interval = 200 * time.Microsecond
	}
	if c.ScanNodes <= 0 {
		c.ScanNodes = 64
	}
	if c.FreeBatch <= 0 {
		c.FreeBatch = 128
	}
	return c
}

// ReclaimStats is a snapshot of one reclaimer's counters.
type ReclaimStats struct {
	Retired      int64 // nodes unlinked onto limbo
	Freed        int64 // blocks returned to arena free lists
	Rediscovered int64 // pre-crash retired blocks collected at startup
	LimboDepth   int64 // blocks currently awaiting their grace period
	SnapBlocked  int64 // limbo batches currently held back by a snapshot pin
}

// StartReclaim attaches a reclaimer to the list and starts its
// goroutine. It must be called before concurrent operations begin (the
// reclaim-enabled flag is an unsynchronized field workers read on every
// hop). Grace periods run on the list's own domain, which snapshot pins
// share, so an open snapshot holds back limbo batches. Idempotent: a
// second call returns the existing reclaimer.
func (s *SkipList) StartReclaim(cfg ReclaimConfig) *Reclaimer {
	if s.rec != nil {
		return s.rec
	}
	cfg = cfg.withDefaults()
	r := &Reclaimer{
		s:        s,
		cfg:      cfg,
		ctx:      exec.NewCtx(cfg.ThreadID, cfg.Node),
		reportCh: make(chan riv.Ptr, 256),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		cursor:   KeyMin,
	}
	r.cond = sync.NewCond(&r.mu)
	s.rec = r
	s.reclaimOn = true // sticky: stays set after Stop (retired nodes may exist)
	go r.run()
	return r
}

// Reclaimer returns the attached reclaimer, or nil.
func (s *SkipList) Reclaimer() *Reclaimer { return s.rec }

// SetGraceObserver installs a callback observing, per freed limbo
// batch, the wall time between batch close and free — the grace-period
// wait. Safe to call while the reclaimer runs.
func (r *Reclaimer) SetGraceObserver(fn func(time.Duration)) { r.grace.Store(&fn) }

// Stats snapshots the counters.
func (r *Reclaimer) Stats() ReclaimStats {
	return ReclaimStats{
		Retired:      r.retired.Load(),
		Freed:        r.freed.Load(),
		Rediscovered: r.rediscovered.Load(),
		LimboDepth:   r.limboDepth.Load(),
		SnapBlocked:  r.snapBlocked.Load(),
	}
}

// report enqueues a retire candidate noticed by a worker. Non-blocking.
func (r *Reclaimer) report(p riv.Ptr) {
	select {
	case r.reportCh <- p:
	default:
	}
}

// Pause blocks new reclaim cycles and waits for the current one to
// finish. Nestable: each Pause needs a matching Resume. While paused the
// reclaimer mutates nothing, so a pauser that has also quiesced the
// workers may Save, Compact, or crash the store safely.
func (r *Reclaimer) Pause() {
	r.mu.Lock()
	r.pauses++
	for r.busy {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// Resume undoes one Pause. An unmatched Resume panics: silently
// tolerating it would leave the nesting count off by one, letting a
// later Pause return while another pauser still believes the reclaimer
// is frozen.
func (r *Reclaimer) Resume() {
	r.mu.Lock()
	if r.pauses == 0 {
		r.mu.Unlock()
		panic("skiplist: Reclaimer.Resume without matching Pause")
	}
	r.pauses--
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Stop terminates the reclaimer goroutine and waits for it. Idempotent.
// Limbo blocks not yet freed stay KindRetired in pmem; they are
// unreachable and are collected by DrainQuiesced, Compact, or the next
// reclaimer's startup scan.
func (r *Reclaimer) Stop() {
	r.mu.Lock()
	if r.stopping {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.stopping = true
	r.cond.Broadcast()
	r.mu.Unlock()
	close(r.quit)
	<-r.done
}

// DrainQuiesced frees every limbo block immediately, skipping grace
// periods. The caller must have paused (or stopped) the reclaimer AND
// quiesced all workers — with nobody pinned, every batch's grace holds
// trivially. Used by the quiesced Compact fallback and by Save, so a
// saved image carries no limbo blocks. Returns the number freed.
func (r *Reclaimer) DrainQuiesced(ctx *exec.Ctx) int {
	defer ctx.Mem.Publish()
	n := 0
	for _, b := range r.pending {
		for _, p := range b.ptrs {
			r.freeOne(ctx, p)
			n++
		}
	}
	r.pending = nil
	for _, p := range r.limbo {
		r.freeOne(ctx, p)
		n++
	}
	r.limbo = nil
	r.sinceClose = 0
	r.limboDepth.Store(0)
	if n > 0 {
		r.s.hintGen.Add(1)
	}
	return n
}

// run is the reclaimer goroutine: rediscover pre-crash leftovers, then
// cycle on reports and the tick. A simulated power failure (pmem crash
// injection) can panic out of any pool access; that models this thread
// dying at the failure, so it is absorbed and the goroutine exits.
func (r *Reclaimer) run() {
	defer close(r.done)
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(pmem.CrashSignal); !ok {
				panic(v)
			}
			r.exitCycle()
		}
	}()
	if r.enterCycle() {
		r.rediscover()
		r.exitCycle()
	}
	tick := time.NewTicker(r.cfg.Interval)
	defer tick.Stop()
	for {
		var first riv.Ptr
		select {
		case <-r.quit:
			return
		case first = <-r.reportCh:
		case <-tick.C:
		}
		if !r.enterCycle() {
			return
		}
		r.cycle(first)
		r.exitCycle()
	}
}

// enterCycle waits out pauses and claims the busy flag; false means the
// reclaimer is stopping.
func (r *Reclaimer) enterCycle() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.pauses > 0 && !r.stopping {
		r.cond.Wait()
	}
	if r.stopping {
		return false
	}
	r.busy = true
	return true
}

// exitCycle ends the reclaimer's unit of operation: its ledger is
// published before busy clears, so a pauser sees the cycle's full count.
func (r *Reclaimer) exitCycle() {
	r.ctx.Mem.Publish()
	r.mu.Lock()
	r.busy = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// cycle runs one rate-limited pass: retire reported + swept candidates,
// close the open limbo batch, free batches whose grace expired.
func (r *Reclaimer) cycle(first riv.Ptr) {
	active := false
	if !first.IsNull() {
		active = true
		r.tryRetire(first)
	}
drain:
	for i := 0; i < cap(r.reportCh); i++ {
		select {
		case p := <-r.reportCh:
			active = true
			r.tryRetire(p)
		default:
			break drain
		}
	}
	if active {
		r.sweepIdle, r.sweepSkip = 0, 0
	}
	if r.sweepSkip > 0 {
		r.sweepSkip--
	} else {
		if r.sweep() > 0 {
			r.sweepIdle = 0
		} else if r.sweepIdle < 8 {
			r.sweepIdle++
		}
		r.sweepSkip = 1<<r.sweepIdle - 1 // 1, 3, ..., 255 skipped cycles when idle
	}
	if len(r.limbo) > 0 {
		r.sinceClose++
		if len(r.limbo) >= r.cfg.FreeBatch || r.sinceClose >= reclaimMaxBatchCycles {
			// Close the batch: wipe hints FIRST, then tag with the era and
			// advance. Order matters — see the file comment's mechanism 1.
			r.s.hintGen.Add(1)
			era := r.s.dom.Era()
			r.s.dom.Advance()
			r.pending = append(r.pending, limboBatch{ptrs: r.limbo, era: era, closed: time.Now()})
			r.limbo = nil
			r.sinceClose = 0
		}
	}
	for len(r.pending) > 0 {
		b := r.pending[0]
		if r.s.dom.MinActive() <= b.era {
			break // oldest batch still visible to someone; later ones too
		}
		for _, p := range b.ptrs {
			r.freeOne(r.ctx, p)
		}
		r.limboDepth.Add(-int64(len(b.ptrs)))
		if g := r.grace.Load(); g != nil {
			(*g)(time.Since(b.closed))
		}
		r.pending = r.pending[1:]
	}
	// Count the batches held back specifically by a snapshot pin: every
	// worker pin has moved past their tags, only a long-lived snapshot
	// pin still covers them. This is the observable cost of an open
	// snapshot (upsl_reclaim_snapshot_blocked_batches).
	blocked := int64(0)
	if len(r.pending) > 0 {
		minW, minP := r.s.dom.MinWorkers(), r.s.dom.MinPinned()
		for _, b := range r.pending {
			if minP <= b.era && minW > b.era {
				blocked++
			}
		}
	}
	r.snapBlocked.Store(blocked)
}

// sweep advances the bottom-level cursor up to ScanNodes nodes, retiring
// every fully-tombstoned node it passes, and returns the number retired.
// The walk itself needs no pin: this goroutine is the only one that
// frees, and it frees nothing while walking.
func (r *Reclaimer) sweep() int {
	s, ctx := r.s, r.ctx
	t := ctx.GetTowers(s.maxHeight)
	preds, succs := t.Preds, t.Succs
	s.linkTraverse(ctx, r.cursor, preds, succs)
	cur := succs[0]
	ctx.PutTowers(t)

	var candidates []riv.Ptr
	visited := 0
	for visited < r.cfg.ScanNodes {
		if cur.IsNull() || cur == s.tail {
			r.cursor = KeyMin // wrap
			break
		}
		n := s.node(cur)
		if n.kind(ctx.Mem) == alloc.KindNode && s.nodeFullyTombstoned(ctx, n) {
			candidates = append(candidates, cur)
		}
		r.cursor = n.key0(s, ctx.Mem) + 1
		cur = n.next(s, 0, ctx.Mem)
		visited++
	}
	retired := 0
	for _, p := range candidates {
		if r.tryRetire(p) {
			retired++
		}
	}
	return retired
}

// tryRetire retires one candidate (SkipList.retire) onto the open limbo
// batch. False means the node was busy or no longer eligible; the caller
// just moves on (the sweep will meet it again).
func (r *Reclaimer) tryRetire(p riv.Ptr) bool {
	if !r.s.retire(r.ctx, p) {
		return false
	}
	r.limbo = append(r.limbo, p)
	r.retired.Add(1)
	r.limboDepth.Add(1)
	return true
}

// freeOne returns one retired block to the allocator (freeRetired's
// state-2 intent) and counts it.
func (r *Reclaimer) freeOne(ctx *exec.Ctx, p riv.Ptr) {
	r.s.freeRetired(ctx, p)
	r.freed.Add(1)
}

// rediscover collects blocks a previous incarnation retired but never
// freed (crash while on the volatile limbo list), and any legacy
// version-log blocks an older image carries — the one kind scan
// returns both (alloc.KindLegacyVersion). They are guaranteed
// unreachable — the state-1 intent covers the unlink window, and no
// version block was ever linked — and no pre-crash reader survives a
// restart, so they free without a grace period.
func (r *Reclaimer) rediscover() {
	blocks := r.s.a.RetiredBlocks()
	for _, p := range blocks {
		r.freeOne(r.ctx, p)
		r.rediscovered.Add(1)
	}
	if len(blocks) > 0 {
		r.s.hintGen.Add(1)
	}
}
