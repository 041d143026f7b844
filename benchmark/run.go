package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"upskiplist"
	"upskiplist/internal/skiplist"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports.
type Result struct {
	Workload string
	Seed     uint64
	Traced   bool
	Check    Check
	Metrics  map[string]Metric
	// Samples is the number of latencies behind each percentile metric,
	// per segment (the metric is the best decile over Segments segments).
	Samples   map[string]int
	Segments  int
	Estimator string
	TraceFile string
}

// set records a metric. A ratio whose denominator was zero is reported
// as 0: JSON has no NaN.
func (r *Result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// bench is one set-up of a workload: a loaded store with its drivers
// attached, the drivers' streams, and the first segment's operations.
type bench struct {
	sp      Spec
	t       *target
	streams []*Stream
	ops     [][]Op // the current segment, one slice per driver
	filled  bool   // ops holds a generated segment that has not run yet
	recs    []*recorder
	merged  []uint32
	tr      *trace // traced pass only
	setup   time.Duration
}

// newBench gives t's drivers their streams, segment buffers and
// recorders. The streams are those of a writers-driver workload, checked
// by the rules r.
func newBench(sp Spec, t *target, seed uint64, writers int, r rules) *bench {
	b := &bench{sp: sp, t: t, merged: make([]uint32, 0, sp.SegOps)}
	z := newZipf(uint64(sp.Keys))
	per := sp.SegOps / sp.Drivers
	for d := 0; d < sp.Drivers; d++ {
		b.streams = append(b.streams, NewStream(sp.Law, z, sp.Keys, seed, d, writers))
		b.ops = append(b.ops, make([]Op, per))
		rec := &recorder{r: r, driver: uint8(d), names: &storeSpanOfKind}
		if sp.Wire {
			rec.names = &clientSpanOfKind
		}
		b.recs = append(b.recs, rec)
	}
	return b
}

// setUp creates the store, preloads it from a single worker, attaches
// the drivers and generates the first segment: everything a run needs
// before its first measured operation.
func setUp(sp Spec, seed uint64, regs *registries) (*bench, error) {
	t0 := time.Now()
	st, err := upskiplist.Create(sp.options())
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	w := st.NewWorker(0)
	buf := make([]byte, sp.ValueLen)
	for _, k := range Preload(sp.Keys, seed) {
		FillValue(buf, k, 0)
		if _, existed, err := w.Put(k, buf); err != nil || existed {
			st.DisableOnlineReclaim()
			return nil, fmt.Errorf("preload key %d: existed=%v err=%v", k, existed, err)
		}
	}
	if regs != nil {
		st.EnableMetrics(regs.store)
	}
	t, err := attach(sp, st, w, regs)
	if err != nil {
		st.DisableOnlineReclaim()
		return nil, err
	}
	b := newBench(sp, t, seed, sp.Drivers, sp.rules())
	b.fill()
	b.setup = time.Since(t0)
	return b, nil
}

// fill generates the next segment, unless one is waiting to be run: the
// streams are the model of the store, so they must never run ahead of
// what has been executed.
func (b *bench) fill() {
	if b.filled {
		return
	}
	for d, s := range b.streams {
		s.Fill(b.ops[d])
	}
	b.filled = true
}

// discard stops everything the set-up started: the server and its
// connections, and the store's background reclaimers.
func (b *bench) discard() {
	b.t.kill()
	b.t.st.DisableOnlineReclaim()
}

// startTrace makes every later segment record spans.
func (b *bench) startTrace() int32 {
	b.tr = &trace{spans: make([]span, 0, 1<<20)}
	return b.tr.open(spanRun, -1)
}

// segResult is one measured segment.
type segResult struct {
	dur      time.Duration
	ops      int // completed and correct
	opsPerS  float64
	p50, p99 [numKinds]float64 // µs
	n        [numKinds]int
}

// segment generates the next segment's operations, runs them on every
// driver at once and times that. Generation, sorting and span folding
// happen while the clock is stopped.
func (b *bench) segment(run int32) segResult {
	b.fill()
	b.filled = false
	failed := 0
	for _, rec := range b.recs {
		failed -= int(rec.chk.Failed)
		for k := range rec.lat {
			rec.lat[k] = rec.lat[k][:0]
		}
		rec.timed = true
		if b.tr != nil {
			rec.traced = true
			rec.parent = b.tr.open(spanSegment, run)
		}
	}
	dur := b.t.runAll(b.ops, b.recs)
	for _, rec := range b.recs {
		failed += int(rec.chk.Failed)
		if b.tr != nil {
			b.tr.end(rec.parent)
			b.tr.fold(rec)
		}
	}
	issued := len(b.ops) * len(b.ops[0])
	res := segResult{dur: dur, ops: issued - failed, opsPerS: float64(issued-failed) / dur.Seconds()}
	for k := range res.n {
		m := b.merged[:0]
		for _, rec := range b.recs {
			m = append(m, rec.lat[k]...)
		}
		slices.Sort(m)
		res.n[k] = len(m)
		res.p50[k] = percentile(m, 0.50) / 1e3
		res.p99[k] = percentile(m, 0.99) / 1e3
	}
	return res
}

// minSegments is the fewest segments a window measures, however short
// -seconds is.
const minSegments = 10

// window measures segments until d has passed.
func (b *bench) window(d time.Duration, run int32) []segResult {
	var segs []segResult
	for start := time.Now(); len(segs) < minSegments || time.Since(start) < d; {
		segs = append(segs, b.segment(run))
	}
	return segs
}

// opsPerS and latency reduce a window's segments to the two shapes of
// timing metric: the best decile of the per-segment values (see
// bestDecile for why not the median), or what sp.estimate says.
func opsPerS(sp Spec, segs []segResult) float64 {
	v := make([]float64, len(segs))
	for i := range segs {
		v[i] = segs[i].opsPerS
	}
	return sp.estimate(v, true)
}

func latency(sp Spec, segs []segResult, kind uint8, p99 bool) float64 {
	v := make([]float64, len(segs))
	for i := range segs {
		v[i] = segs[i].p50[kind]
		if p99 {
			v[i] = segs[i].p99[kind]
		}
	}
	return sp.estimate(v, false)
}

// readKind is the op kind whose latency a workload reports as its read
// latency, writeKind as its write latency.
func (sp Spec) readKind() uint8 {
	if sp.Law == LawE {
		return OpScan
	}
	return OpGet
}

// timings turns a window's segments into the end-to-end timing metrics.
func (r *Result) timings(sp Spec, segs []segResult) {
	rk := sp.readKind()
	r.Segments = len(segs)
	r.Estimator = "best decile"
	if sp.Typical {
		r.Estimator = "median"
	}
	r.set("ops_per_s", opsPerS(sp, segs), "1/s")
	r.set("read_p50_us", latency(sp, segs, rk, false), "us")
	r.set("read_p99_us", latency(sp, segs, rk, true), "us")
	r.set("write_p50_us", latency(sp, segs, OpPut, false), "us")
	r.set("write_p99_us", latency(sp, segs, OpPut, true), "us")
	for _, m := range []string{"read_p50_us", "read_p99_us"} {
		r.Samples[m] = segs[0].n[rk]
	}
	for _, m := range []string{"write_p50_us", "write_p99_us"} {
		r.Samples[m] = segs[0].n[OpPut]
	}
}

// liveBytes is Σ (8 + value length) over the keys the store holds.
func (b *bench) liveBytes() float64 {
	n := 0
	newOracle(b.sp, b.streams).liveKeys(func(uint64) { n++ })
	return float64(n) * float64(8+b.sp.ValueLen)
}

// spaceAmp is the allocated footprint — every block that is not on a
// free list — over the live user bytes.
func (b *bench) spaceAmp() float64 {
	c := b.t.st.BlockCensus()
	blockBytes := 8 * skiplist.BlockWordsFor(b.t.st.ShardList(0).Config())
	return float64(c.Total-c.Free) * float64(blockBytes) / b.liveBytes()
}

// sweepDepth is the pipeline depth of the post-run sweep on a wire
// workload, whatever the workload's own depth.
const sweepDepth = 64

// maxRemovedChecked bounds how many removed keys (the most recent ones)
// the sweep confirms are gone.
const maxRemovedChecked = 200_000

// sweep reads every key the oracle holds, and the most recently removed
// ones, through the workload's own drivers.
func (b *bench) sweep(chk *Check) {
	or := newOracle(b.sp, b.streams)
	var keys []uint64
	or.liveKeys(func(k uint64) { keys = append(keys, k) })
	removed := or.removedKeys()
	keys = append(keys, removed[max(0, len(removed)-maxRemovedChecked):]...)
	b.readBack(b.t, or, keys, false, chk)
}

// readBack reads keys through t's drivers, split evenly, and checks
// each against the oracle.
func (b *bench) readBack(t *target, or *Oracle, keys []uint64, lost bool, chk *Check) {
	n := len(t.drivers)
	ops := make([][]Op, n)
	recs := make([]*recorder, n)
	for d := range ops {
		part := keys[d*len(keys)/n : (d+1)*len(keys)/n]
		ops[d] = make([]Op, len(part))
		for i, k := range part {
			ops[d][i] = Op{Kind: OpGet, Key: k}
		}
		recs[d] = &recorder{r: b.sp.rules(), oracle: or, lost: lost}
		if cd, ok := t.drivers[d].(*connDriver); ok {
			depth := cd.depth
			cd.depth = sweepDepth
			defer func() { cd.depth = depth }()
		}
	}
	t.runAll(ops, recs)
	for _, rec := range recs {
		chk.merge(&rec.chk)
	}
}

// recoveryRound is what one crash/reopen round of the tail measured.
type recoveryRound struct {
	wall          time.Duration
	linesReverted int
	stats         upskiplist.RecoveryStats
}

// tail is the durability check. In each round it switches crash tracking
// on, applies a share of tailWrites more writes (and removes, on churn)
// through the workload's drivers, stops the server the hard way on a
// wire workload, discards every unflushed cache line, times Reopen, and
// reads every write acknowledged in this or an earlier round back from
// the reopened store. A store so small that it reopens in a few
// milliseconds is then crashed and reopened again, with no writes in
// between, until reopening has been timed for minReopenTime in all: a
// single 3 ms measurement is mostly noise. Last, every shard's structural
// invariants are checked. It leaves nothing running.
func (b *bench) tail(regs *registries, chk *Check) ([]recoveryRound, error) {
	t := b.t
	var touched []uint64
	var rounds []recoveryRound
	per := tailWrites / tailRounds / b.sp.Drivers
	for round := 0; round < tailRounds; round++ {
		t.st.EnableCrashTracking()
		ops := make([][]Op, len(b.streams))
		recs := make([]*recorder, len(b.streams))
		for d, s := range b.streams {
			for len(ops[d]) < per {
				if op := s.nextOp(); op.Kind == OpPut || op.Kind == OpRemove {
					ops[d] = append(ops[d], op)
					touched = append(touched, op.Key)
				}
			}
			recs[d] = &recorder{r: b.sp.rules()}
		}
		t.runAll(ops, recs)
		for _, rec := range recs {
			chk.merge(&rec.chk)
		}
		t.kill()

		var rr recoveryRound
		rr.linesReverted = t.st.SimulateCrash()
		t0 := time.Now()
		st2, err := t.st.Reopen()
		rr.wall = time.Since(t0)
		if err != nil {
			return rounds, fmt.Errorf("reopen after crash (round %d): %w", round, err)
		}
		rr.stats = st2.RecoveryStats()
		rounds = append(rounds, rr)

		w := st2.NewWorker(0)
		direct := &target{st: st2, drivers: []driver{&workerDriver{w: w, buf: make([]byte, b.sp.ValueLen)}}}
		slices.Sort(touched)
		touched = slices.Compact(touched) // a key written twice is one key to lose
		b.readBack(direct, newOracle(b.sp, b.streams), touched, true, chk)

		if round < tailRounds-1 {
			if t, err = attach(b.sp, st2, w, regs); err != nil {
				st2.DisableOnlineReclaim()
				return rounds, err
			}
			b.t = t
			continue
		}

		var timed time.Duration
		for _, r := range rounds {
			timed += r.wall
		}
		budget := minReopenTime
		if b.sp.shrink != 0 {
			budget = time.Duration(float64(budget) * b.sp.shrink)
		}
		for len(rounds) < maxReopens && timed < budget {
			rr := recoveryRound{linesReverted: st2.SimulateCrash()}
			t0 := time.Now()
			st3, err := st2.Reopen()
			rr.wall = time.Since(t0)
			if err != nil {
				return rounds, fmt.Errorf("reopen of a quiesced store: %w", err)
			}
			rr.stats = st3.RecoveryStats()
			rounds = append(rounds, rr)
			timed += rr.wall
			st2 = st3
		}
		chk.Attempted++
		if err := st2.NewWorker(0).CheckInvariants(); err != nil {
			chk.failf("invariants after reopen: %v", err)
		}
		st2.DisableOnlineReclaim()
	}
	return rounds, nil
}

// minReopenTime is how long Reopen is timed for in all, in at most
// maxReopens rounds; recovery_ms is their lower quartile.
const (
	minReopenTime = 1200 * time.Millisecond
	maxReopens    = 100
)

// setups is how many times the untraced pass sets the workload up;
// setup_s is the median. Only the last set-up is run.
const setups = 3

// runUntraced produces a workload's end-to-end metrics.
func runUntraced(sp Spec, seed uint64, seconds float64) (*Result, error) {
	res := &Result{Workload: sp.Name, Seed: seed, Metrics: map[string]Metric{}, Samples: map[string]int{}}
	var b *bench
	took := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.discard()
		}
		var err error
		if b, err = setUp(sp, seed, nil); err != nil {
			return nil, err
		}
		took = append(took, b.setup.Seconds())
	}
	res.set("setup_s", median(took), "s")

	segs := b.window(time.Duration(seconds*float64(time.Second)), -1)
	res.timings(sp, segs)
	for _, rec := range b.recs {
		res.Check.merge(&rec.chk)
	}
	res.set("space_amp", b.spaceAmp(), "ratio")

	b.sweep(&res.Check)
	rounds, err := b.tail(nil, &res.Check)
	if err != nil {
		b.discard()
		return nil, err
	}
	walls := make([]float64, len(rounds))
	for i, r := range rounds {
		walls[i] = r.wall.Seconds() * 1e3
	}
	// The lower quartile. A small single-shard store reopens serially and
	// its fastest rounds repeat best; a sharded one fans out over both
	// cores, the round in which neither was disturbed is the outlier and
	// the median repeats best. On both the lower quartile spread 12 % over
	// ten runs, against 31 % for the worse choice.
	q1, _, _ := quartiles(walls)
	res.set("recovery_ms", q1, "ms")
	return res, nil
}

func medianRound(rounds []recoveryRound, f func(*recoveryRound) float64) float64 {
	v := make([]float64, len(rounds))
	for i := range rounds {
		v[i] = f(&rounds[i])
	}
	return median(v)
}
