package main

import "fmt"

// Check counts operations attempted against operations that failed: an
// error, a refused request, or a result that is not what the streams'
// model of the store says it must be. Every operation the benchmark
// issues passes through one of its methods — nothing is sampled.
type Check struct {
	Attempted uint64
	Failed    uint64
	// Lost counts acknowledged writes that were not readable after a
	// crash and Reopen. They are also counted in Failed.
	Lost uint64
	// Notes describes the first few failures.
	Notes []string
}

const maxNotes = 8

func (c *Check) failf(format string, args ...any) {
	c.Failed++
	if len(c.Notes) < maxNotes {
		c.Notes = append(c.Notes, fmt.Sprintf(format, args...))
	}
}

func (c *Check) merge(o *Check) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Lost += o.Lost
	for _, n := range o.Notes {
		if len(c.Notes) < maxNotes {
			c.Notes = append(c.Notes, n)
		}
	}
}

// FailedFrac is failed ÷ attempted.
func (c *Check) FailedFrac() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.Failed) / float64(c.Attempted)
}

// rules is what a workload's results are checked against.
type rules struct {
	valueLen int
	writers  int
	// exact: one writer, so a Get must return exactly the version the
	// stream last wrote. With two writers a Get may see either's write;
	// it is then checked for length, owner, payload and a writer id that
	// exists, and the post-run sweep checks the final version.
	exact bool
	// updates: Puts overwrite existing keys (YCSB-A); otherwise they
	// insert new ones.
	updates bool
}

func (sp Spec) rules() rules {
	return rules{valueLen: sp.ValueLen, writers: sp.Drivers, exact: sp.Drivers == 1, updates: sp.Law == LawA}
}

func (c *Check) get(r rules, op *Op, val []byte, found bool) {
	c.Attempted++
	if !found {
		c.failf("get %d: not found", op.Key)
		return
	}
	ver, ok := CheckValue(val, op.Key, r.valueLen)
	switch {
	case !ok:
		c.failf("get %d: malformed value (len %d, want %d)", op.Key, len(val), r.valueLen)
	case r.exact && ver != op.Ver:
		c.failf("get %d: version %#x, want %#x", op.Key, ver, op.Ver)
	case !r.exact && int(ver>>verWriterShift) >= r.writers:
		c.failf("get %d: version %#x names no writer", op.Key, ver)
	}
}

func (c *Check) put(r rules, op *Op, old []byte, existed bool, err error) {
	c.Attempted++
	switch {
	case err != nil:
		c.failf("put %d: %v", op.Key, err)
	case existed != r.updates:
		c.failf("put %d: existed=%v, want %v", op.Key, existed, r.updates)
	case existed:
		if _, ok := CheckValue(old, op.Key, r.valueLen); !ok {
			c.failf("put %d: malformed previous value (len %d)", op.Key, len(old))
		}
	}
}

func (c *Check) remove(r rules, op *Op, old []byte, found bool, err error) {
	c.Attempted++
	switch {
	case err != nil:
		c.failf("remove %d: %v", op.Key, err)
	case !found:
		c.failf("remove %d: not found", op.Key)
	default:
		if ver, ok := CheckValue(old, op.Key, r.valueLen); !ok || ver != op.Ver {
			c.failf("remove %d: malformed removed value (len %d)", op.Key, len(old))
		}
	}
}

// scanCheck follows one scan's callbacks. The key space of the scan
// workload is dense and nothing in it is ever removed or rewritten, so a
// scan from lo must return exactly lo, lo+1, ... at version 0.
type scanCheck struct {
	next uint64
	n    int
	bad  string
}

func (s *scanCheck) begin(lo uint64) { *s = scanCheck{next: lo} }

func (s *scanCheck) visit(r rules, key uint64, val []byte) {
	if s.bad == "" {
		if key != s.next {
			s.bad = fmt.Sprintf("pair %d has key %d, want %d", s.n, key, s.next)
		} else if ver, ok := CheckValue(val, key, r.valueLen); !ok || ver != 0 {
			s.bad = fmt.Sprintf("pair %d (key %d) has a malformed value (len %d)", s.n, key, len(val))
		}
	}
	s.next = key + 1
	s.n++
}

func (c *Check) scan(op *Op, s *scanCheck, err error) {
	c.Attempted++
	switch {
	case err != nil:
		c.failf("scan %d+%d: %v", op.Key, op.N, err)
	case s.bad != "":
		c.failf("scan %d+%d: %s", op.Key, op.N, s.bad)
	case s.n != int(op.Ver):
		c.failf("scan %d+%d: %d pairs, want %d", op.Key, op.N, s.n, op.Ver)
	}
}

// Oracle is what the store must hold once every operation the streams
// have generated has been applied: the union of the drivers' models.
type Oracle struct {
	r       rules
	law     Law
	streams []*Stream
	live    map[uint64]struct{} // LawChurn only
}

func newOracle(sp Spec, streams []*Stream) *Oracle {
	o := &Oracle{r: sp.rules(), law: sp.Law, streams: streams}
	if sp.Law == LawChurn {
		o.live = make(map[uint64]struct{}, len(streams[0].live))
		for _, k := range streams[0].live {
			o.live[k] = struct{}{}
		}
	}
	return o
}

// liveKeys calls fn for every key the store must hold.
func (o *Oracle) liveKeys(fn func(key uint64)) {
	s := o.streams[0]
	switch o.law {
	case LawChurn:
		for _, k := range s.live {
			fn(k)
		}
	case LawE:
		for k := uint64(1); k <= s.maxKey; k++ {
			fn(k)
		}
	default:
		for k := uint64(1); k <= s.n; k++ {
			fn(k)
		}
	}
}

// removedKeys returns the keys the store must no longer hold.
func (o *Oracle) removedKeys() []uint64 { return o.streams[0].removed }

// holds reports whether key must be present and, if so, whether ver is
// a version it may hold: the last one any writer wrote to it, or the
// preload's if none did.
func (o *Oracle) holds(key uint64, ver uint32) (present, verOK bool) {
	switch o.law {
	case LawChurn:
		_, present = o.live[key]
		return present, ver == 0
	case LawE:
		return key >= 1 && key <= o.streams[0].maxKey, ver == 0
	}
	written := false
	for _, s := range o.streams {
		if l := s.last[key]; l != 0 {
			written = true
			if l == ver {
				return true, true
			}
		}
	}
	return true, !written && ver == 0
}

// read checks one read of the store's final state. lost marks reads
// that verify acknowledged writes after a crash and Reopen.
func (o *Oracle) read(c *Check, key uint64, val []byte, found, lost bool) {
	c.Attempted++
	present, _ := o.holds(key, 0)
	bad := ""
	switch {
	case !present && found:
		bad = "removed key is still readable"
	case present && !found:
		bad = "not found"
	case present:
		ver, ok := CheckValue(val, key, o.r.valueLen)
		if !ok {
			bad = fmt.Sprintf("malformed value (len %d, want %d)", len(val), o.r.valueLen)
		} else if _, verOK := o.holds(key, ver); !verOK {
			bad = fmt.Sprintf("holds version %#x, which is not the last one written", ver)
		}
	}
	if bad == "" {
		return
	}
	if lost {
		c.Lost++
		c.failf("after reopen, key %d: %s", key, bad)
	} else {
		c.failf("sweep, key %d: %s", key, bad)
	}
}
