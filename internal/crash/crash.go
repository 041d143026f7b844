// Package crash orchestrates the black-box crash tests of Chapter 6:
// worker goroutines drive an insert-heavy workload against a Store, a
// full-system failure is injected at an arbitrary persistent-memory
// access, the pool loses its unflushed cache lines, the store is
// reopened (epoch bump), and the same logical threads resume. Every
// operation — including those pending at the crash — is logged to a
// lincheck.History, whose strict-linearizability check is the paper's
// correctness criterion.
//
// Two failure modes mirror §6.1.2:
//
//   - Abort: the process dies (std::abort-style) but the OS flushes the
//     caches while unmapping the pool, so no writes are lost — only
//     operations are interrupted.
//
//   - PowerFailure: the machine loses power; every cache line that was
//     not explicitly flushed reverts to its last persisted contents.
package crash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"upskiplist"
	"upskiplist/internal/lincheck"
	"upskiplist/internal/pmem"
)

// Mode selects the failure model.
type Mode int

// Failure modes.
const (
	Abort Mode = iota
	PowerFailure
)

func (m Mode) String() string {
	if m == PowerFailure {
		return "power-failure"
	}
	return "abort"
}

// TrialConfig parameterizes one crash trial.
type TrialConfig struct {
	Mode Mode
	// Workers is the number of concurrent logical threads.
	Workers int
	// Keyspace bounds the keys used; the paper shrinks it (50K keys) to
	// maximize contention on interrupted keys.
	Keyspace uint64
	// Preload keys are inserted before the measured phase.
	Preload uint64
	// CrashAfter is the number of pool accesses after which the power
	// fails (counted across all workers).
	CrashAfter int64
	// PostOps is how many operations each worker runs after recovery,
	// re-reading and re-writing the contended keys so the analyzer can
	// judge interrupted operations (§6.1.2).
	PostOps int
	// ReadFraction of post/pre-crash ops are Gets (the rest are inserts).
	// The paper uses a 100% insert workload; a small read share
	// strengthens the check.
	ReadFraction float64
	// EvictProb models spontaneous cache eviction: each unflushed line
	// independently survives the power failure with this probability
	// (0 = classic all-lost power failure). Only meaningful in
	// PowerFailure mode.
	EvictProb float64
	// Seed makes the eviction draw reproducible.
	Seed uint64
	// Eras is the number of crash-recover cycles in one trial (default 1).
	// Multi-era trials check that recovery state (epochs, logs, lock
	// stamps) composes across repeated failures.
	Eras int
	// Options configures the store (zero value = scaled-down default).
	Options upskiplist.Options

	// postOp, when set, runs before each post-recovery operation: a test
	// hook for what a worker does between its operations.
	postOp func(worker int, key uint64)
}

// DefaultTrialConfig returns a configuration mirroring §6.2's scaled-down
// parameters.
func DefaultTrialConfig() TrialConfig {
	o := upskiplist.DefaultOptions()
	o.MaxHeight = 12
	o.KeysPerNode = 8
	o.PoolWords = 1 << 22
	return TrialConfig{
		Mode:         PowerFailure,
		Workers:      8,
		Keyspace:     500,
		Preload:      200,
		CrashAfter:   30000,
		PostOps:      300,
		ReadFraction: 0.2,
		Options:      o,
	}
}

// TrialResult reports what happened.
type TrialResult struct {
	History       *lincheck.History
	Store         *upskiplist.Store // post-recovery handle
	LinesReverted int
	OpsBefore     int
	OpsPending    int
	OpsAfter      int
}

// WorkerPanic is a panic other than the injected crash in one of a
// trial's workers — before the crash or after recovery. The worker
// stops, the others run on, and the trial returns its result with the
// first such panic as its error: the trial fails, but as a named trial
// whose history is kept, where the panic would have killed the test
// binary.
type WorkerPanic struct {
	Worker int
	Phase  string // "pre-crash" or "post-recovery"
	Key    uint64 // the key of the operation that panicked
	Value  any
	Stack  string
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("crash: %s worker %d panicked on key %d: %v\n%s", p.Phase, p.Worker, p.Key, p.Value, p.Stack)
}

// panics keeps the first WorkerPanic of a trial.
type panics struct {
	mu    sync.Mutex
	first *WorkerPanic
}

// catch records a recovered panic value r. (The caller recovers: recover
// only stops a panic when the deferred function calls it itself.)
func (ps *panics) catch(r any, worker int, phase string, key uint64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.first == nil {
		ps.first = &WorkerPanic{Worker: worker, Phase: phase, Key: key, Value: r, Stack: string(debug.Stack())}
	}
}

// err returns the first panic, or nil.
func (ps *panics) err() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.first == nil {
		return nil
	}
	return ps.first
}

// RunTrial executes one crash trial (possibly spanning several
// crash-recover eras) and returns the history for checking. A worker
// panic fails the trial with a *WorkerPanic, returned together with the
// result.
func RunTrial(cfg TrialConfig) (*TrialResult, error) {
	st, err := upskiplist.Create(cfg.Options)
	if err != nil {
		return nil, err
	}
	h := lincheck.NewHistory()
	eras := cfg.Eras
	if eras < 1 {
		eras = 1
	}

	// Preload (no crashes armed yet). Values are the operation's start
	// timestamp — unique, as the analyzer requires (§6.1.1) — stored in
	// the representation valueBytes picks for it.
	w0 := st.NewWorker(0)
	for k := uint64(1); k <= cfg.Preload; k++ {
		if err := doOp(h, w0, 0, k, false, h.Now()); err != nil {
			return nil, err
		}
	}

	var pending atomic.Int64
	var wg sync.WaitGroup
	var ps panics
	reverted := 0
	opsBefore := 0
	st2 := st
	for era := 0; era < eras; era++ {
		if cfg.Mode == PowerFailure {
			st2.EnableCrashTracking()
		}
		inj := pmem.NewCountdownInjector(cfg.CrashAfter)
		st2.SetInjector(inj)

		for id := 0; id < cfg.Workers; id++ {
			wg.Add(1)
			go func(st *upskiplist.Store, id int) {
				defer wg.Done()
				runWorker(st, h, cfg, id, &pending, &ps)
			}(st2, id)
		}
		wg.Wait()

		// All workers are dead mid-operation: the machine has failed.
		h.Crash()
		st2.SetInjector(nil)
		inj.Disarm()
		if cfg.Mode == PowerFailure {
			if cfg.EvictProb > 0 {
				r, _ := st2.SimulateCrashPartial(cfg.EvictProb, cfg.Seed+uint64(era))
				reverted += r
			} else {
				reverted += st2.SimulateCrash()
			}
			st2.DisableCrashTracking()
		}
		opsBefore = h.Len()

		st2, err = st2.Reopen()
		if err != nil {
			return nil, err
		}
	}

	// Post-recovery phase: the same logical threads return (thread IDs
	// reused) and hammer the same keyspace.
	for id := 0; id < cfg.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var key uint64
			defer func() {
				if r := recover(); r != nil {
					ps.catch(r, id, "post-recovery", key)
				}
			}()
			w := st2.NewWorker(id)
			rng := newRng(int64(id) + 1000)
			for i := 0; i < cfg.PostOps; i++ {
				key = rng.key(cfg.Keyspace)
				read := rng.f64() < cfg.ReadFraction
				if cfg.postOp != nil {
					cfg.postOp(id, key)
				}
				if err := doOp(h, w, id, key, read, h.Now()); err != nil {
					panic(fmt.Sprintf("post-crash insert error: %v", err))
				}
			}
		}(id)
	}
	wg.Wait()

	return &TrialResult{
		History:       h,
		Store:         st2,
		LinesReverted: reverted,
		OpsBefore:     opsBefore,
		OpsPending:    int(pending.Load()),
		OpsAfter:      h.Len() - opsBefore,
	}, ps.err()
}

// runWorker loops until the injected crash unwinds it. Each operation is
// registered before it executes so that a mid-operation death is logged
// as pending with the exact key/value it was applying. Any other panic
// stops the worker and goes to ps.
func runWorker(st *upskiplist.Store, h *lincheck.History, cfg TrialConfig, id int, pending *atomic.Int64, ps *panics) {
	w := st.NewWorker(id)
	rng := newRng(int64(id) + 1)
	for {
		key := rng.key(cfg.Keyspace)
		read := rng.f64() < cfg.ReadFraction
		crashed := func() (crashed bool) {
			start := h.Now()
			value := uint64(start)
			defer func() {
				if r := recover(); r != nil {
					crashed = true
					if _, ok := r.(pmem.CrashSignal); !ok {
						ps.catch(r, id, "pre-crash", key)
						return
					}
					// Died mid-operation: log it as pending.
					kind := lincheck.KindWrite
					if read {
						kind = lincheck.KindRead
					}
					h.Record(lincheck.Op{
						Worker: id, Kind: kind, Key: key, Value: value,
						Start: start, End: -1,
					})
					pending.Add(1)
				}
			}()
			if err := doOp(h, w, id, key, read, start); err != nil {
				panic(fmt.Sprintf("crash trial insert error: %v", err))
			}
			return false
		}()
		if crashed {
			return
		}
	}
}

// doOp runs one operation and logs it: a read of key, or a write of the
// unique value uint64(start).
func doOp(h *lincheck.History, w *upskiplist.Worker, id int, key uint64, read bool, start int64) (err error) {
	op := lincheck.Op{Worker: id, Kind: lincheck.KindRead, Key: key, Start: start}
	if read {
		op.Observed = get(w, key)
	} else {
		op.Kind, op.Value = lincheck.KindWrite, uint64(start)
		if op.Observed, err = put(w, key, op.Value); err != nil {
			return err
		}
	}
	op.End = h.Now()
	h.Record(op)
	return nil
}

// The analyzer wants a unique uint64 per write; the store has three
// representations for a value. valueBytes spreads the ids over all of
// them by id mod 3 — an inline word, an 8-byte word that reads as a slab
// ref and so lives in a chunk, and a 24-byte value — so consecutive
// writes of a key keep changing its representation and both publish
// paths stay in the battery. A ref-shaped word names pool 0, chunk 0 and
// spreads the id over its length code and word offset: a ref to any
// store while the id, a logical timestamp, is below 5 113·2^12.
const (
	idMask     = uint64(1)<<48 - 1
	refShape   = uint64(1)<<63 | 1<<24
	refOffBits = 12
	tornMarker = ^uint64(0) - 1 // an observation no write can have produced
)

func valueBytes(id uint64, buf *[24]byte) []byte {
	switch id % 3 {
	case 0:
		binary.LittleEndian.PutUint64(buf[:], id)
		return buf[:8]
	case 1:
		binary.LittleEndian.PutUint64(buf[:], refShape|id>>refOffBits<<48|id&(1<<refOffBits-1))
		return buf[:8]
	}
	binary.LittleEndian.PutUint64(buf[:], id)
	binary.LittleEndian.PutUint64(buf[8:], ^id)
	binary.LittleEndian.PutUint64(buf[16:], id*0x9E3779B97F4A7C15)
	return buf[:]
}

// valueID inverts valueBytes; bytes that no valueBytes call produced
// (a torn or misdirected read) come back as tornMarker, which the
// analyzer reports as a value nobody wrote.
func valueID(b []byte) uint64 {
	var buf [24]byte
	if len(b) == 8 || len(b) == 24 {
		w := binary.LittleEndian.Uint64(b)
		id := w & idMask
		if w>>63 == 1 {
			id = w>>48&0x7FFF<<refOffBits | w&(1<<refOffBits-1)
		}
		if bytes.Equal(valueBytes(id, &buf), b) {
			return id
		}
	}
	return tornMarker
}

// put and get are PutU64/GetU64 over that encoding, returning what the
// analyzer records as observed: the previous (or read) id, or
// lincheck.Absent.
func put(w *upskiplist.Worker, key, id uint64) (uint64, error) {
	var buf [24]byte
	prev, existed, err := w.Put(key, valueBytes(id, &buf))
	if !existed {
		return lincheck.Absent, err
	}
	return valueID(prev), err
}

func get(w *upskiplist.Worker, key uint64) uint64 {
	v, ok := w.Get(key)
	if !ok {
		return lincheck.Absent
	}
	return valueID(v)
}

// rng is a tiny xorshift so worker loops do not share math/rand state.
type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	return &rng{s: uint64(seed)*2654435761 + 1}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) key(space uint64) uint64 { return r.next()%space + 1 }
func (r *rng) f64() float64            { return float64(r.next()%1000) / 1000 }
