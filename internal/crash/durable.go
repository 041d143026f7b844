package crash

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"upskiplist"
	"upskiplist/internal/lincheck"
	"upskiplist/internal/pmem"
	"upskiplist/internal/pmemlog"
)

// Durable-history trials.
//
// The paper records operation logs with libpmemlog because a DRAM log
// would be destroyed by the very power failures under test (§6.1.1).
// RunDurableTrial reproduces that discipline: every operation writes a
// BEGIN record to a persistent log (in its own crash-tracked pool)
// before executing and an END record after; the analyzer's history is
// reconstructed purely from what the log says after the crash. An
// operation whose BEGIN survived but whose END did not is exactly the
// paper's "interrupted operation": the analyzer decides from later
// observations whether it took effect before the crash.

// Log record layout (width 8).
const (
	recBegin = 0
	recEnd   = 1
	recCrash = 2
	recWidth = 8
)

// RunDurableTrial is RunTrial with the history kept in persistent memory
// and rebuilt from it after the failure. A worker panic fails it as it
// fails RunTrial.
func RunDurableTrial(cfg TrialConfig) (*TrialResult, error) {
	st, err := upskiplist.Create(cfg.Options)
	if err != nil {
		return nil, err
	}
	// Instrumentation pool: BEGIN+END per op, generously sized from the
	// crash budget (every op costs well over ten pool accesses).
	capRecords := uint64(cfg.CrashAfter)/4 + 2*cfg.Preload +
		2*uint64(cfg.PostOps)*uint64(cfg.Workers) + 1024
	ipool, err := pmem.NewPool(pmem.Config{
		ID: 100, Words: pmemlog.RegionWords(capRecords, recWidth) + 64, HomeNode: -1,
	})
	if err != nil {
		return nil, err
	}
	olog, err := pmemlog.Format(ipool, 0, capRecords, recWidth)
	if err != nil {
		return nil, err
	}

	var clock atomic.Int64
	var seqs []atomic.Int64 // per-worker op sequence numbers
	seqs = make([]atomic.Int64, cfg.Workers+1)

	logBegin := func(worker int, seq int64, kind, key, value uint64, start int64) error {
		return olog.Append(nil, []uint64{recBegin, uint64(worker), uint64(seq), kind, key, value, uint64(start), 0})
	}
	// observed is the id read or replaced, or lincheck.Absent.
	logEnd := func(worker int, seq int64, observed uint64, end int64) error {
		return olog.Append(nil, []uint64{recEnd, uint64(worker), uint64(seq), 0, 0, observed, uint64(end), 0})
	}

	// Preload, fully logged under a worker ID distinct from every
	// workload thread so (worker, seq) pairs stay unique.
	preID := cfg.Workers
	w0 := st.NewWorker(0)
	for k := uint64(1); k <= cfg.Preload; k++ {
		start := clock.Add(1)
		v := uint64(start)
		seq := seqs[preID].Add(1)
		if err := logBegin(preID, seq, uint64(lincheck.KindWrite), k, v, start); err != nil {
			return nil, err
		}
		obs, err := put(w0, k, v)
		if err != nil {
			return nil, err
		}
		if err := logEnd(preID, seq, obs, clock.Add(1)); err != nil {
			return nil, err
		}
	}

	if cfg.Mode == PowerFailure {
		st.EnableCrashTracking()
		ipool.EnableTracking()
	}
	inj := pmem.NewCountdownInjector(cfg.CrashAfter)
	st.SetInjector(inj) // only the store pools kill workers mid-operation

	var pending atomic.Int64
	var wg sync.WaitGroup
	var ps panics
	for id := 0; id < cfg.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := st.NewWorker(id)
			rng := newRng(int64(id) + 1)
			for {
				key := rng.key(cfg.Keyspace)
				read := rng.f64() < cfg.ReadFraction
				kind := uint64(lincheck.KindWrite)
				if read {
					kind = uint64(lincheck.KindRead)
				}
				crashed := func() (crashed bool) {
					start := clock.Add(1)
					value := uint64(start)
					seq := seqs[id].Add(1)
					if logBegin(id, seq, kind, key, value, start) != nil {
						return true // log full: stop this worker
					}
					defer func() {
						if r := recover(); r != nil {
							crashed = true
							if _, ok := r.(pmem.CrashSignal); !ok {
								ps.catch(r, id, "pre-crash", key)
								return
							}
							// Died mid-operation: no END record — exactly
							// how a real power failure leaves the log.
							pending.Add(1)
						}
					}()
					logEnd(id, seq, apply(w, read, key, value), clock.Add(1))
					return false
				}()
				if crashed {
					return
				}
			}
		}(id)
	}
	wg.Wait()

	// Power failure: both the store pools AND the instrumentation pool
	// lose their unflushed lines.
	st.SetInjector(nil)
	inj.Disarm()
	reverted := 0
	if cfg.Mode == PowerFailure {
		if cfg.EvictProb > 0 {
			reverted, _ = st.SimulateCrashPartial(cfg.EvictProb, cfg.Seed)
			r, _ := ipool.CrashPartial(cfg.EvictProb, cfg.Seed^0xbeef)
			reverted += r
		} else {
			reverted = st.SimulateCrash()
			reverted += ipool.Crash()
		}
		st.DisableCrashTracking()
		ipool.DisableTracking()
	}

	// Restart: reattach both the store and the log; reseed the logical
	// clock past everything the durable log remembers.
	st2, err := st.Reopen()
	if err != nil {
		return nil, err
	}
	olog2, err := pmemlog.Attach(ipool, 0)
	if err != nil {
		return nil, err
	}
	maxT := int64(0)
	olog2.Walk(nil, func(_ uint64, rec []uint64) bool {
		if t := int64(rec[6]); t > maxT {
			maxT = t
		}
		return true
	})
	clock.Store(maxT + 1)
	if err := olog2.Append(nil, []uint64{recCrash, 0, 0, 0, 0, 0, uint64(clock.Add(1)), 0}); err != nil {
		return nil, err
	}

	opsBeforeMarker := int(olog2.Len())

	// Post-recovery phase, same thread identities, still durably logged.
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
				kind := uint64(lincheck.KindWrite)
				if read {
					kind = uint64(lincheck.KindRead)
				}
				start := clock.Add(1)
				value := uint64(start)
				seq := seqs[id].Add(1)
				if logBegin(id, seq, kind, key, value, start) != nil {
					return
				}
				logEnd(id, seq, apply(w, read, key, value), clock.Add(1))
			}
		}(id)
	}
	wg.Wait()

	h, err := reconstruct(olog2)
	if err != nil {
		return nil, err
	}
	return &TrialResult{
		History:       h,
		Store:         st2,
		LinesReverted: reverted,
		OpsBefore:     opsBeforeMarker,
		OpsPending:    int(pending.Load()),
		OpsAfter:      int(olog2.Len()) - opsBeforeMarker,
	}, ps.err()
}

// apply runs the store's side of one logged operation — a read of key,
// or a write of value — and returns what it observed.
func apply(w *upskiplist.Worker, read bool, key, value uint64) uint64 {
	if read {
		return get(w, key)
	}
	obs, err := put(w, key, value)
	if err != nil {
		panic(fmt.Sprintf("durable trial insert: %v", err))
	}
	return obs
}

// reconstruct rebuilds a lincheck history purely from the durable log —
// the post-crash analyzer's only input, as in the paper.
func reconstruct(l *pmemlog.Log) (*lincheck.History, error) {
	type opKey struct {
		worker int
		seq    int64
	}
	type begun struct {
		op  lincheck.Op
		era int
	}
	open := map[opKey]begun{}
	var order []opKey // BEGIN order, for deterministic emission
	era := 0
	var crashTimes []int64
	type finished struct {
		op  lincheck.Op
		era int
	}
	done := map[opKey]finished{}

	var walkErr error
	l.Walk(nil, func(_ uint64, rec []uint64) bool {
		switch rec[0] {
		case recBegin:
			k := opKey{int(rec[1]), int64(rec[2])}
			open[k] = begun{
				op: lincheck.Op{
					Worker: int(rec[1]),
					Kind:   lincheck.Kind(rec[3]),
					Key:    rec[4],
					Value:  rec[5],
					Start:  int64(rec[6]),
					End:    -1,
				},
				era: era,
			}
			order = append(order, k)
		case recEnd:
			k := opKey{int(rec[1]), int64(rec[2])}
			b, ok := open[k]
			if !ok {
				walkErr = errors.New("crash: END record without BEGIN")
				return false
			}
			b.op.Observed = rec[5]
			b.op.End = int64(rec[6])
			done[k] = finished{op: b.op, era: b.era}
			delete(open, k)
		case recCrash:
			era++
			crashTimes = append(crashTimes, int64(rec[6]))
		}
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}

	h := lincheck.NewHistory()
	emittedEra := 0
	emit := func(op lincheck.Op, opEra int) {
		for emittedEra < opEra {
			// The crash deadline comes from the durable marker's logged
			// timestamp — the only clock the op timestamps share.
			h.CrashAt(crashTimes[emittedEra])
			emittedEra++
		}
		h.Record(op)
	}
	for _, k := range order {
		if f, ok := done[k]; ok {
			emit(f.op, f.era)
			continue
		}
		if b, ok := open[k]; ok {
			emit(b.op, b.era) // pending: End stays -1
		}
	}
	for emittedEra < era {
		h.CrashAt(crashTimes[emittedEra])
		emittedEra++
	}
	return h, nil
}
