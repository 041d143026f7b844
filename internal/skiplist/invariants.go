package skiplist

import (
	"fmt"

	"upskiplist/internal/alloc"
	"upskiplist/internal/exec"
	"upskiplist/internal/riv"
)

// CheckInvariants validates the structural invariants of the list. It
// must be called while the list is quiesced (no concurrent operations).
// Checked invariants:
//
//  1. Bottom-level first keys are strictly increasing from head to tail.
//  2. Every level's list is a sublist of the level below (the skip list
//     property; transient violations are permitted only mid-insert, so a
//     quiesced list must satisfy it up to each node's linked height).
//  3. Every node's internal keys lie within [keys[0], successor.keys[0]).
//  4. No key appears in more than one node.
//  5. No node is write-locked and reader counts are zero.
//  6. Node heights are within [1, maxHeight].
//  7. Every linked node is a live node block: never KindRetired or
//     KindFree, and never simultaneously on an allocator free list —
//     the invariant online reclamation must preserve (a violation means
//     a reachable block could be handed out again as a new node).
func (s *SkipList) CheckInvariants(ctx *exec.Ctx) error {
	nd := ctx.Mem
	defer nd.Publish()
	seen := make(map[uint64]riv.Ptr)
	curEpoch := s.a.Clock().Current()

	// Pass 0: complete any crash repairs still pending (the structure is
	// "consistent modulo deferred repairs" after a failure; the checker
	// finishes them the way a traversal would, then verifies strictly).
	recoveries := 1 // suppress the one-per-traversal deferral budget
	for p := s.node(s.head).next(s, 0, nd); !p.IsNull() && p != s.tail; {
		n := s.node(p)
		if n.epoch(nd) != curEpoch {
			s.checkForRecovery(ctx, 0, n, &recoveries)
			// Force the claim even when the budget would defer it.
			if n.epoch(nd) != curEpoch {
				if n.pool.CAS(n.off+offEpoch, n.epoch(nd), curEpoch, nd) {
					s.checkForNodeSplitRecovery(ctx, n)
					h := n.height(nd)
					if h > 1 && p != s.head && p != s.tail {
						s.linkHigherLevels(ctx, n, 1, h)
					}
				}
			}
		}
		p = n.next(s, 0, nd)
	}

	// Pass 1: bottom level.
	var bottom []riv.Ptr
	prevKey := uint64(0)
	cur := s.node(s.head).next(s, 0, nd)
	for {
		if cur.IsNull() {
			return fmt.Errorf("skiplist: bottom level not terminated by tail")
		}
		if cur == s.tail {
			break
		}
		n := s.node(cur)
		if k := n.kind(nd); k != alloc.KindNode {
			return fmt.Errorf("skiplist: linked node %v has block kind %d (retired or freed block still reachable)", cur, k)
		}
		k0 := n.key0(s, nd)
		if k0 == keyEmpty {
			return fmt.Errorf("skiplist: node %v has empty first key", cur)
		}
		if k0 <= prevKey && prevKey != 0 {
			return fmt.Errorf("skiplist: first keys not increasing: %d after %d", k0, prevKey)
		}
		h := n.height(nd)
		if h < 1 || h > s.maxHeight {
			return fmt.Errorf("skiplist: node %v has height %d", cur, h)
		}
		if lw := n.lockWord(nd); lw&splitWr != 0 ||
			(lockReaders(lw) != 0 && lockEpoch(lw) == curEpoch) {
			// Reader counts stamped by dead epochs are benign (discarded
			// by the next locker); live-epoch locks in a quiesced list
			// are leaks.
			return fmt.Errorf("skiplist: node %v lock word %#x held in quiesced list", cur, lw)
		}
		succ := n.next(s, 0, nd)
		succKey := keyInf
		if succ != s.tail && !succ.IsNull() {
			succKey = s.node(succ).key0(s, nd)
		}
		for i := 0; i < s.keysPerNode; i++ {
			k := n.key(s, i, nd)
			if k == keyEmpty {
				continue
			}
			if k < k0 || k >= succKey {
				return fmt.Errorf("skiplist: key %d in node %v outside range [%d,%d)", k, cur, k0, succKey)
			}
			if prior, dup := seen[k]; dup {
				return fmt.Errorf("skiplist: key %d in both %v and %v", k, prior, cur)
			}
			seen[k] = cur
		}
		bottom = append(bottom, cur)
		prevKey = k0
		cur = succ
	}

	// Pass 2: each higher level must be a subsequence of the bottom, and
	// every node must be linked at all levels below its height.
	pos := make(map[riv.Ptr]int, len(bottom))
	for i, p := range bottom {
		pos[p] = i
	}
	linkedAt := make(map[riv.Ptr]int) // highest level seen
	for level := s.maxHeight - 1; level >= 0; level-- {
		prev := -1
		cur := s.node(s.head).next(s, level, nd)
		for cur != s.tail {
			if cur.IsNull() {
				return fmt.Errorf("skiplist: level %d not terminated by tail", level)
			}
			i, ok := pos[cur]
			if !ok {
				return fmt.Errorf("skiplist: node %v on level %d missing from bottom level", cur, level)
			}
			if i <= prev {
				return fmt.Errorf("skiplist: level %d order violates bottom order at %v", level, cur)
			}
			prev = i
			if _, ok := linkedAt[cur]; !ok {
				linkedAt[cur] = level
			}
			cur = s.node(cur).next(s, level, nd)
		}
	}
	for _, p := range bottom {
		top := linkedAt[p]
		h := s.node(p).height(nd)
		if top > h-1 {
			return fmt.Errorf("skiplist: node %v linked at level %d above height %d", p, top, h)
		}
	}

	// Pass 3: no reachable block may also sit on an allocator free list
	// (pass 2 already proved every linked pointer appears on the bottom
	// level, so checking the bottom set covers all levels). A block in
	// both places would eventually be reallocated while still linked.
	var dup error
	free := make(map[riv.Ptr]struct{})
	s.a.ForEachFree(func(p riv.Ptr) {
		free[p] = struct{}{}
	})
	for _, p := range bottom {
		if _, onFree := free[p]; onFree {
			dup = fmt.Errorf("skiplist: node %v is linked and on a free list", p)
			break
		}
	}
	return dup
}

// DumpStats returns coarse structure statistics for debugging and the
// experiment harness.
type StructStats struct {
	Nodes     int
	LiveKeys  int
	Tombs     int
	MaxLinked int
	// EmptyNodes counts linked nodes with no live key at all — the
	// population online reclamation exists to keep near zero.
	EmptyNodes int
}

// Stats walks the list (quiesced) and summarizes it.
func (s *SkipList) Stats(ctx *exec.Ctx) StructStats {
	nd := ctx.Mem
	defer nd.Publish()
	var st StructStats
	cur := s.node(s.head).next(s, 0, nd)
	for !cur.IsNull() && cur != s.tail {
		n := s.node(cur)
		st.Nodes++
		if h := n.height(nd); h > st.MaxLinked {
			st.MaxLinked = h
		}
		liveHere := 0
		for i := 0; i < s.keysPerNode; i++ {
			if n.key(s, i, nd) == keyEmpty {
				continue
			}
			if n.value(s, i, nd) == Tombstone {
				st.Tombs++
			} else {
				st.LiveKeys++
				liveHere++
			}
		}
		if liveHere == 0 {
			st.EmptyNodes++
		}
		cur = n.next(s, 0, nd)
	}
	return st
}

// DescribeKey reports, for a test's failure message, the bottom-level
// node whose key range covers key — kind, split count, lock word — and
// the slot holding key in it. Quiesced callers only: it follows raw
// level-0 links without validation.
func (s *SkipList) DescribeKey(ctx *exec.Ctx, key uint64) string {
	nd := ctx.Mem
	defer nd.Publish()
	n := s.node(s.head)
	for next := n.next(s, 0, nd); !next.IsNull() && next != s.tail && s.node(next).key0(s, nd) <= key; next = n.next(s, 0, nd) {
		n = s.node(next)
	}
	slot := "no slot holds the key"
	for i := 0; i < s.keysPerNode; i++ {
		if n.key(s, i, nd) == key {
			slot = fmt.Sprintf("slot %d value word %#x", i, n.value(s, i, nd))
		}
	}
	return fmt.Sprintf("node %v (key0 %d) kind %d split count %d lock word %#x: %s",
		n.ptr, n.key0(s, nd), n.kind(nd), n.splitCount(nd), n.lockWord(nd), slot)
}
