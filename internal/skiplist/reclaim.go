package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/riv"
)

// Online epoch-based node reclamation, done inline by the workers
// (DESIGN.md, "Online reclamation", has the proofs).
//
// The worker whose Remove kills a node's last live value retires the
// node itself, through the protocol Compact uses (compact.go: retire,
// freeRetired, one intent log, one crash repair), into a limbo batch; a
// later retire, or a worker settling the limbo between operations, frees
// the batch once every pin is past its era tag.
//
// One retirer per list at a time. The worker tries the list's retire
// token, a CAS that no worker ever waits on: with it, the worker frees
// the limbo batches whose grace has passed and retires the queue — its
// own node and any another worker left; without it, it leaves its node
// on the queue for the holder and returns. One retirer is what lets the
// intent log have one slot and keeps every earlier victim fully unlinked
// when the next unlink walk runs. PauseReclaim holds the token too.
//
// Safety rests on four mechanisms:
//
//  1. Era pins. A limbo batch frees only once every pinned era is past
//     its tag, so no worker can still hold a pointer to a victim. The
//     hint generation is bumped at batch close, before the era advances,
//     so the same grace period retires stale hints.
//  2. The split count set to splitRetired with the kind flip, in one
//     line, under the write lock. traverse reads every node's split count
//     anyway, before the epoch claim: a victim is walked through, never
//     adopted as covering node, never repaired; an operation that
//     captured it fails validation and retraverses.
//  3. Retirement marks on the victim's own next words, set after the
//     flip: a CAS expecting a victim's clean next pointer fails, and
//     linkTraverse walks through a marked node instead of adopting it.
//     A flipped but unmarked victim is a link predecessor like any live
//     node: the unlink reads its next words only after marking them.
//  4. The intent log: state 1 covers the retire, state 2 each free, and
//     Open repairs either (recoverCompaction). A crash while a victim
//     sits in the volatile limbo leaves it KindRetired and unlinked; the
//     first retire after the next Open frees it (RetiredBlocks).

// maxQueued bounds the retire queue; a candidate offered to a full one
// is left to Compact.
const maxQueued = 256

// settleEvery is how many operations a worker finishes on a list whose
// limbo holds blocks between two settles of it.
const settleEvery = 1024

// ScanPinPairs is how many pairs a scan that pins across its moves
// (Worker.Scan) yields under one era pin: it then decodes what its
// cursors still buffer and pins afresh, so a long scan holds back no
// limbo batch for longer than this many pairs.
const ScanPinPairs = 1024

// reclaim is a list's volatile retire state.
type reclaim struct {
	on    atomic.Bool  // OnlineReclaim: workers retire the nodes they empty
	token atomic.Int32 // 0 free, -1 held by a retirer, n > 0 held by n pausers

	qmu    sync.Mutex
	queue  []riv.Ptr
	queued atomic.Int32

	limbo     epoch.Limbo[riv.Ptr]
	collected bool  // the blocks retired before Open are freed (token holder only)
	settledAt int64 // retired at the last settle (token holder only)
	grace     atomic.Pointer[func(time.Duration)]

	retired, freed, rediscovered atomic.Int64
}

// ReclaimStats is a snapshot of one list's reclamation counters.
type ReclaimStats struct {
	Retired      int64 // nodes unlinked into the limbo
	Freed        int64 // blocks returned to arena free lists
	Rediscovered int64 // blocks an earlier incarnation retired, freed after Open
	LimboDepth   int64 // blocks awaiting their grace period
	SnapBlocked  int64 // limbo batches held back only by a snapshot pin
}

// SetOnlineReclaim switches inline retirement: with it on, a Remove that
// kills a node's last live value retires the node. Safe at any time.
func (s *SkipList) SetOnlineReclaim(on bool) { s.rc.on.Store(on) }

// SetGraceObserver installs a callback given, per freed limbo batch,
// the wait between its close and its free. Safe to call at any time.
func (s *SkipList) SetGraceObserver(fn func(time.Duration)) { s.rc.grace.Store(&fn) }

// ReclaimStats snapshots the counters.
func (s *SkipList) ReclaimStats() ReclaimStats {
	return ReclaimStats{
		Retired:      s.rc.retired.Load(),
		Freed:        s.rc.freed.Load(),
		Rediscovered: s.rc.rediscovered.Load(),
		LimboDepth:   int64(s.rc.limbo.Len()),
		SnapBlocked:  int64(s.rc.limbo.SnapBlocked(s.dom)),
	}
}

// PauseReclaim takes the retire token, waiting for a retirer in flight.
// Nestable. While paused no retire and no node free touches the pools:
// emptied nodes queue up.
func (s *SkipList) PauseReclaim() {
	for {
		if v := s.rc.token.Load(); v >= 0 && s.rc.token.CompareAndSwap(v, v+1) {
			return
		}
		runtime.Gosched()
	}
}

// ResumeReclaim undoes one PauseReclaim; an unmatched one panics rather
// than let a retirer in while another pauser believes it is frozen.
func (s *SkipList) ResumeReclaim() {
	for {
		v := s.rc.token.Load()
		if v <= 0 {
			panic("skiplist: ResumeReclaim without matching PauseReclaim")
		}
		if s.rc.token.CompareAndSwap(v, v-1) {
			return
		}
	}
}

// retireEmptied offers a node the caller's Remove emptied for
// retirement, then tends the list for as long as it can take the token.
// Re-checking the queue after each release means a node queued while
// another worker held the token is never stranded behind it. A queued
// pointer may outlive its block; retire accepts only a node linked at
// the bottom.
func (s *SkipList) retireEmptied(ctx *exec.Ctx, p riv.Ptr) {
	r := &s.rc
	r.qmu.Lock()
	if len(r.queue) < maxQueued {
		r.queue = append(r.queue, p)
		r.queued.Add(1)
	}
	r.qmu.Unlock()
	for r.queued.Load() > 0 && s.tend(ctx, false) {
	}
}

// tend does the token holder's work if the token is free: collect the
// blocks retired before Open (first holder only); when settling, close
// the open batch if no retire has added to it since the last settle;
// free the limbo batches whose grace has passed; unless settling, retire
// the queue. Settling is the limbo's idle path, run by unpin every
// settleEvery operations a worker finishes while the limbo holds blocks:
// the blocks retired last before removes stop need not wait for Compact.
func (s *SkipList) tend(ctx *exec.Ctx, settling bool) bool {
	r := &s.rc
	if !r.token.CompareAndSwap(0, -1) {
		return false
	}
	// A crash injected mid-retire unwinds through here; the token must
	// not outlive the dead worker, or the pauser that crashes the store
	// would wait for it forever.
	defer r.token.Store(0)
	if !r.collected {
		r.collected = true
		s.collectRetired(ctx)
	}
	if settling {
		if n := r.retired.Load(); n != r.settledAt {
			r.settledAt = n
		} else if r.limbo.OpenLen() > 0 {
			s.hintGen.Add(1) // mechanism 1: hints first, then the era
			r.limbo.Close(s.dom)
		}
	}
	var graced func(time.Duration)
	if g := r.grace.Load(); g != nil {
		graced = *g
	}
	r.limbo.Expire(s.dom, func(p riv.Ptr) { s.freeOne(ctx, p) }, graced)
	if !settling {
		s.retireQueued(ctx)
	}
	return true
}

// retireQueued retires every queued candidate into the limbo. A
// candidate revived, busy or already retired is dropped.
func (s *SkipList) retireQueued(ctx *exec.Ctx) {
	r := &s.rc
	r.qmu.Lock()
	q := r.queue
	r.queue = nil
	r.queued.Store(0)
	r.qmu.Unlock()
	for _, p := range q {
		if !s.retire(ctx, p) {
			continue
		}
		r.retired.Add(1)
		if r.limbo.Add(p) {
			// Wipe hints FIRST, then tag with the era and advance (the file
			// comment's mechanism 1).
			s.hintGen.Add(1)
			r.limbo.Close(s.dom)
		}
	}
	r.qmu.Lock()
	if r.queue == nil {
		r.queue = q[:0]
	}
	r.qmu.Unlock()
}

// freeOne returns one retired block to the allocator (freeRetired's
// state-2 intent) and counts it.
func (s *SkipList) freeOne(ctx *exec.Ctx, p riv.Ptr) {
	s.freeRetired(ctx, p)
	s.rc.freed.Add(1)
}

// collectRetired frees the blocks an earlier incarnation retired but
// never freed, and any legacy version-log blocks an older image carries
// (alloc.KindLegacyVersion): one kind scan finds both. They are
// unreachable, and no pre-crash reader survives a restart, so they free
// without grace. The scan runs before this handle retires anything.
func (s *SkipList) collectRetired(ctx *exec.Ctx) {
	blocks := s.a.RetiredBlocks()
	for _, p := range blocks {
		s.freeOne(ctx, p)
		s.rc.rediscovered.Add(1)
	}
	if len(blocks) > 0 {
		s.hintGen.Add(1)
	}
}

// DrainQuiesced retires the queued candidates and frees every limbo
// block without grace, returning how many it freed. The caller holds a
// PauseReclaim and has quiesced all workers. Compact and Save use it.
func (s *SkipList) DrainQuiesced(ctx *exec.Ctx) int {
	defer ctx.Mem.Publish()
	s.retireQueued(ctx)
	n := s.rc.limbo.Drain(func(p riv.Ptr) { s.freeOne(ctx, p) })
	if n > 0 {
		s.hintGen.Add(1)
	}
	return n
}
