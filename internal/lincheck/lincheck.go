// Package lincheck is a black-box strict-linearizability checker for
// crash-prone key-value histories, in the spirit of the persistent
// synchronization primitive analyzer the paper uses for Chapter 6.
//
// Like the paper's analyzer, it requires every written value to be
// unique per key. An upsert is treated as an always-successful CAS that
// returns the previous value, so for each key the writes form a value
// chain absent -> v1 -> v2 -> ... Each read must observe a value on the
// chain, and every operation's linearization point must fall within its
// invocation/response interval — with a crash acting as the deadline for
// operations that were still pending when it hit (strict linearizability:
// an interrupted operation may take effect before the crash or never,
// but not after).
//
// Pending writes whose value is never observed by any completed
// operation are assumed ineffective and dropped; pending writes whose
// value IS observed must have taken effect and are spliced into the
// chain (the analyzer's "inserting responses with inferred values").
// Where several pending writes could extend the chain, the checker
// backtracks over the alternatives.
package lincheck

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Kind distinguishes operations.
type Kind int

// Operation kinds.
const (
	KindWrite Kind = iota // upsert returning the previous value
	KindRead
)

// Absent is the distinguished "no value" observation. User values must
// be nonzero and unique per key.
const Absent = uint64(0)

// Op is one logged operation.
type Op struct {
	ID     int
	Worker int
	Kind   Kind
	Key    uint64
	// Value is the value written (writes only).
	Value uint64
	// Observed is the previous value (completed writes) or the value
	// read (completed reads); Absent for "not found".
	Observed uint64
	// Start and End are logical timestamps. End < 0 marks an operation
	// that never responded (pending at a crash).
	Start, End int64
	// Era is the failure-free period the operation ran in (0-based).
	Era int
}

// Pending reports whether the op never responded.
func (o Op) Pending() bool { return o.End < 0 }

// History collects operations and crash points. The recording methods
// are safe for concurrent use.
type History struct {
	clock   atomic.Int64
	mu      chMutex
	ops     []Op
	crashes []int64 // timestamp of each crash, by era
}

// chMutex is a tiny channel-based mutex (keeps the struct copyable-safe
// under vet without sync.Mutex-by-value worries).
type chMutex struct{ ch chan struct{} }

func (m *chMutex) lock() {
	if m.ch == nil {
		panic("lincheck: History must be created with NewHistory")
	}
	m.ch <- struct{}{}
}
func (m *chMutex) unlock() { <-m.ch }

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{mu: chMutex{ch: make(chan struct{}, 1)}}
}

// Now returns the next logical timestamp.
func (h *History) Now() int64 { return h.clock.Add(1) }

// Record appends a completed or pending operation.
func (h *History) Record(op Op) {
	h.mu.lock()
	op.ID = len(h.ops)
	op.Era = len(h.crashes)
	h.ops = append(h.ops, op)
	h.mu.unlock()
}

// Crash marks a crash point: every pending operation recorded so far (in
// the current era) gets the crash as its deadline.
func (h *History) Crash() {
	h.CrashAt(h.clock.Add(1))
}

// CrashAt is Crash with an explicit logical timestamp. Histories rebuilt
// from a durable operation log carry their own clock values in every op;
// the crash deadline must come from that same clock (the logged crash
// marker), not from this History's internal one, or every interrupted
// operation that took effect would appear to linearize after its
// deadline. The internal clock is pulled forward so later Now/Crash
// calls stay ahead of the supplied time.
func (h *History) CrashAt(t int64) {
	h.mu.lock()
	h.crashes = append(h.crashes, t)
	for c := h.clock.Load(); c < t; c = h.clock.Load() {
		if h.clock.CompareAndSwap(c, t) {
			break
		}
	}
	h.mu.unlock()
}

// Crashes returns a copy of the crash timestamps, one per era boundary.
func (h *History) Crashes() []int64 {
	h.mu.lock()
	defer h.mu.unlock()
	return append([]int64(nil), h.crashes...)
}

// Ops returns a copy of the logged operations.
func (h *History) Ops() []Op {
	h.mu.lock()
	out := append([]Op(nil), h.ops...)
	h.mu.unlock()
	return out
}

// Len returns the number of logged operations.
func (h *History) Len() int {
	h.mu.lock()
	n := len(h.ops)
	h.mu.unlock()
	return n
}

// Violation describes a strict-linearizability failure.
type Violation struct {
	Key    uint64
	Reason string
	Ops    []Op
}

func (v *Violation) Error() string {
	return fmt.Sprintf("lincheck: key %d: %s (%d ops involved)", v.Key, v.Reason, len(v.Ops))
}

// Check verifies the history and returns the first violation found, or
// nil if the history is strictly linearizable.
func (h *History) Check() error {
	h.mu.lock()
	ops := append([]Op(nil), h.ops...)
	crashes := append([]int64(nil), h.crashes...)
	h.mu.unlock()

	byKey := map[uint64][]Op{}
	for _, op := range ops {
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, k := range keys {
		if v := checkKey(k, byKey[k], crashes); v != nil {
			return v
		}
	}
	return nil
}

// deadline returns the effective response deadline of an op.
func deadline(op Op, crashes []int64) int64 {
	if !op.Pending() {
		return op.End
	}
	if op.Era < len(crashes) {
		return crashes[op.Era]
	}
	// Pending with no subsequent crash (still running at history end):
	// may linearize any time after start.
	return int64(1) << 62
}

// checkKey validates one key's sub-history.
func checkKey(key uint64, ops []Op, crashes []int64) *Violation {
	var writes, reads []Op
	valueToWrite := map[uint64]Op{}
	observedVals := map[uint64]bool{}
	for _, op := range ops {
		switch op.Kind {
		case KindWrite:
			if op.Value == Absent {
				return &Violation{key, "write of the reserved Absent value", []Op{op}}
			}
			if prior, dup := valueToWrite[op.Value]; dup {
				return &Violation{key, "duplicate written value (unique-value precondition broken)", []Op{prior, op}}
			}
			valueToWrite[op.Value] = op
			writes = append(writes, op)
			if !op.Pending() {
				observedVals[op.Observed] = true
			}
		case KindRead:
			reads = append(reads, op)
			if !op.Pending() {
				observedVals[op.Observed] = true
			}
		}
	}

	// Completed writes indexed by the value they observed.
	byObs := map[uint64][]Op{}
	for _, w := range writes {
		if !w.Pending() {
			byObs[w.Observed] = append(byObs[w.Observed], w)
		}
	}
	for obs, ws := range byObs {
		if len(ws) > 1 {
			return &Violation{key, fmt.Sprintf("two completed writes both observed value %d", obs), ws}
		}
	}

	// Pending writes that must have taken effect: their value was
	// observed by someone, or a completed write consumed it.
	mustPlace := map[uint64]Op{}
	mayPlace := map[uint64]Op{}
	for _, w := range writes {
		if !w.Pending() {
			continue
		}
		if observedVals[w.Value] {
			mustPlace[w.Value] = w
		} else {
			mayPlace[w.Value] = w
		}
	}

	// Every read must observe a produced value (or Absent). Every
	// candidate chain carries the same value set — all completed writes
	// plus every must-place pending write — so this is chain-independent.
	producible := map[uint64]bool{Absent: true}
	for _, w := range writes {
		if !w.Pending() || observedVals[w.Value] {
			producible[w.Value] = true
		}
	}
	for _, r := range reads {
		if !r.Pending() && !producible[r.Observed] {
			return &Violation{key, fmt.Sprintf("read observed %d, which no effective write produced", r.Observed), []Op{r}}
		}
	}

	readsBySegment := map[uint64][]Op{} // value whose segment the read sits in
	for _, r := range reads {
		if r.Pending() {
			continue // a pending read constrains nothing
		}
		readsBySegment[r.Observed] = append(readsBySegment[r.Observed], r)
	}
	for _, rs := range readsBySegment {
		sort.Slice(rs, func(a, b int) bool { return rs[a].Start < rs[b].Start })
	}

	// Timing feasibility: interleave reads into their chain segments and
	// greedily assign strictly increasing linearization points within
	// [Start, deadline]. Several chains can satisfy the observation
	// constraints when pending writes leave the order open, and they
	// differ in timing, so enumerate chains until one also admits
	// linearization points.
	var timingV *Violation
	ok := buildChain(byObs, mustPlace, mayPlace, func(chain []Op) bool {
		seq := make([]Op, 0, len(chain)+len(reads))
		seq = append(seq, readsBySegment[Absent]...)
		for _, w := range chain {
			seq = append(seq, w)
			seq = append(seq, readsBySegment[w.Value]...)
		}
		t := int64(-1 << 62)
		for _, op := range seq {
			if op.Start > t {
				t = op.Start
			} else {
				t++
			}
			if t > deadline(op, crashes) {
				if timingV == nil {
					timingV = &Violation{key,
						fmt.Sprintf("no linearization point for op %d (kind %d, value %d): needs t=%d > deadline %d",
							op.ID, op.Kind, op.Value, t, deadline(op, crashes)),
						seq}
				}
				return false
			}
		}
		return true
	})
	if ok {
		return nil
	}
	if timingV != nil {
		return timingV
	}
	return &Violation{key, "no consistent value chain exists", append([]Op(nil), writes...)}
}

// buildChain searches for an ordering of effective writes starting from
// Absent such that every completed write observes its predecessor's
// value and every must-place pending write is included. Pending writes
// (whose observed value is unknown) may be spliced anywhere their value
// keeps the chain connected. Each complete chain is offered to accept;
// the search backtracks past rejected chains and reports whether any
// chain was accepted.
func buildChain(byObs map[uint64][]Op, mustPlace, mayPlace map[uint64]Op, accept func([]Op) bool) bool {
	total := len(mustPlace)
	for _, ws := range byObs {
		total += len(ws)
	}
	var chain []Op
	placed := map[uint64]bool{}
	var dfs func(cur uint64, placedMust int) bool
	dfs = func(cur uint64, placedMust int) bool {
		if len(chain) > total+len(mayPlace) {
			return false
		}
		// Preferred continuation: the completed write that observed cur.
		if ws := byObs[cur]; len(ws) == 1 && !placed[ws[0].Value] {
			w := ws[0]
			placed[w.Value] = true
			chain = append(chain, w)
			if dfs(w.Value, placedMust) {
				return true
			}
			chain = chain[:len(chain)-1]
			placed[w.Value] = false
		}
		// Splice a pending write.
		for v, w := range mustPlace {
			if placed[v] {
				continue
			}
			placed[v] = true
			chain = append(chain, w)
			if dfs(v, placedMust+1) {
				return true
			}
			chain = chain[:len(chain)-1]
			placed[v] = false
		}
		// Done when every completed write and must-place pending write is
		// placed. (may-place writes are simply dropped: ineffective.)
		if placedMust == len(mustPlace) {
			for _, ws := range byObs {
				for _, w := range ws {
					if !placed[w.Value] {
						return false
					}
				}
			}
			return accept(chain)
		}
		return false
	}
	return dfs(Absent, 0)
}
