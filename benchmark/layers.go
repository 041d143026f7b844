package main

// The traced pass: per-layer metrics. Every layer is measured from the
// outside — by timing calls into its exported functions and reading its
// exported counters. Nothing in the program is changed or instrumented
// by this file.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/hist"
	"upskiplist/internal/metrics"
	"upskiplist/internal/pmem"
	"upskiplist/internal/riv"
	"upskiplist/internal/skiplist"
	"upskiplist/internal/slab"
	"upskiplist/internal/stats"
	"upskiplist/internal/wire"
)

// countSegments is the number of traced segments the per-operation
// counts are taken over. It is fixed, not derived from -seconds, and on
// the single-worker embedded workloads without removes the background
// reclaimer is held for those segments, so the counts repeat exactly
// from one run to the next at the same seed.
const countSegments = 10

// plainShare is the share of -seconds the traced pass spends on the
// reference store alone before it starts alternating.
const plainShare = 0.25

// counters is a reading of every public counter plane at one instant.
type counters struct {
	mem     pmem.StatsSnapshot
	slab    slab.Stats
	path    stats.Snapshot // traversal counters of the workers doing the work
	drains  uint64
	drained uint64
}

func (b *bench) counters() counters {
	st := b.t.st
	c := counters{mem: st.Stats().Mem, slab: st.SlabStats()}
	if b.t.srv != nil {
		s := b.t.srv.Snapshot()
		c.path, c.drains, c.drained = s, s.Drains, s.DrainedOps
		return c
	}
	for _, w := range b.t.workers {
		c.path = c.path.Merge(w.Stats())
	}
	return c
}

// modelUnits is the latency the cost model charged for a set of
// accesses, in its own unit (one spin-loop iteration): Σ counter ×
// penalty. The contention surcharge on concurrent flushes has no counter
// and is not included.
func modelUnits(c *pmem.CostModel, s pmem.StatsSnapshot) uint64 {
	hits := s.Loads - min(s.Loads, s.Misses)
	return hits*uint64(c.HitPenalty) +
		s.Misses*uint64(c.LoadPenalty) +
		s.RemoteOps*uint64(c.RemotePenalty) +
		(s.Stores+s.CASes)*uint64(c.StorePenalty) +
		s.Flushes*uint64(c.FlushPenalty) +
		s.Fences*uint64(c.FencePenalty) +
		s.Prefetches*uint64(c.PrefetchPenalty)
}

func subMem(a, b pmem.StatsSnapshot) pmem.StatsSnapshot {
	return stats.Snapshot{Mem: a}.Sub(stats.Snapshot{Mem: b}).Mem
}

// calibrate measures what one unit of the cost model costs in wall time
// when n goroutines are charged at once, each loading from a private
// pool through a private accessor. The only state they share is whatever
// the cost model itself shares, so the ratio of the 2-goroutine figure
// to the 1-goroutine figure is the model's own scaling loss.
//
// The loads walk a 4 MiB pool two lines at a time: every one misses the
// simulated 512 KiB line cache and is charged the full load penalty,
// while the real hardware sees a stream its prefetcher hides, so the
// figure is the cost of the model's spin loop and not of the host's DRAM.
// The result is the median of several rounds over the same pools; the
// first round (cold caches) is dropped.
func calibrate(n int) (float64, error) {
	const rounds, loads, stride = 6, 100_000, 2 * pmem.LineWords
	cost := pmem.DefaultCostModel()
	pools := make([]*pmem.Pool, n)
	for g := range pools {
		var err error
		if pools[g], err = pmem.NewPool(pmem.Config{ID: uint16(g), Words: 1 << 19, HomeNode: -1, Cost: cost}); err != nil {
			return 0, err
		}
		// Untouched memory reads as one shared zero page; write every
		// page once so all rounds read real ones.
		for off := uint64(0); off < pools[g].Size(); off += 512 {
			pools[g].Store(off, 1, nil)
		}
	}
	perUnit := make([]float64, 0, rounds-1)
	for round := 0; round < rounds; round++ {
		ns := make([]float64, n)
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		for g, pool := range pools {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				acc := pmem.NewAcc(0)
				before := pool.Stats().Snapshot()
				ready.Done()
				<-start
				t0 := time.Now()
				for i, off := 0, uint64(0); i < loads; i, off = i+1, (off+stride)%pool.Size() {
					pool.Load(off, acc)
				}
				el := time.Since(t0)
				ns[g] = float64(el.Nanoseconds()) / float64(modelUnits(cost, subMem(pool.Stats().Snapshot(), before)))
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		if round > 0 {
			sum := 0.0
			for _, v := range ns {
				sum += v
			}
			perUnit = append(perUnit, sum/float64(n))
		}
	}
	return median(perUnit), nil
}

// replayLimit bounds the calls of each stand-alone replay.
const replayLimit = 20_000

// replaySkiplist sends read keys of the run straight to shard 0's skip
// list, below the store: what a Get costs without routing, the era pin's
// caller and the value decode.
func (b *bench) replaySkiplist(keys []uint64, parent int32) {
	list := b.t.st.ShardList(0)
	var ctx *exec.Ctx
	if len(b.t.workers) > 0 {
		ctx = b.t.workers[0].Ctx() // the cache and hints the run left
	} else {
		ctx = exec.NewCtx(100, 0) // a thread id the server never hands out
	}
	for i, k := range keys {
		t0 := now()
		list.Pin(ctx)
		list.Get(ctx, k)
		list.Unpin(ctx)
		b.tr.spans = append(b.tr.spans, span{Name: spanSkiplistGet, Parent: parent, Req: uint32(i), Start: t0, End: now()})
	}
}

// slabReplay is what the stand-alone arena measured.
type slabReplay struct {
	fencesPerPut, flushesPerPut float64
}

// replaySlab drives a stand-alone slab.Arena — its own pool, allocator
// and cost model, no skip list — with values of the workload's size:
// rounds of put-all, get-all, retire-all, so later rounds allocate from
// recycled free lists the way a running store does.
func (b *bench) replaySlab(parent int32) (slabReplay, error) {
	const values, rounds = 2048, 4
	o := b.sp.options()
	acfg := alloc.Config{
		ChunkWords: o.ChunkWords, MaxChunks: 1024,
		BlockWords: skiplist.BlockWordsFor(b.t.st.ShardList(0).Config()),
		NumArenas:  o.NumArenas, NumLogs: o.NumThreads, RootWords: 64,
	}
	need := uint64(values)*chunkWords(b.sp.ValueLen)*2 + 8*acfg.ChunkWords
	pool, err := pmem.NewPool(pmem.Config{Words: alloc.MinPoolWords(acfg, need/acfg.ChunkWords+1), HomeNode: -1, Cost: o.Cost})
	if err != nil {
		return slabReplay{}, err
	}
	pa, err := alloc.Format(pool, acfg)
	if err != nil {
		return slabReplay{}, err
	}
	space := riv.NewSpace()
	space.AddPool(pool)
	clock := epoch.Attach(pool, alloc.EpochOff)
	clock.InitIfZero()
	a := alloc.New(space, clock)
	a.AttachPool(pa, -1)
	ctx := exec.NewCtx(0, 0)
	ar, err := slab.Attach(a, ctx)
	if err != nil {
		return slabReplay{}, err
	}
	val := make([]byte, b.sp.ValueLen)
	var dst []byte
	refs := make([]slab.Ref, values)
	var put pmem.StatsSnapshot
	for r := 0; r < rounds; r++ {
		before := pool.Stats().Snapshot()
		for i := range refs {
			FillValue(val, uint64(i+1), uint32(r))
			t0 := now()
			ref, err := ar.Put(ctx, val, nil)
			b.tr.spans = append(b.tr.spans, span{Name: spanSlabPut, Parent: parent, Req: uint32(i), Start: t0, End: now()})
			if err != nil {
				return slabReplay{}, fmt.Errorf("slab replay put: %w", err)
			}
			refs[i] = ref
		}
		d := subMem(pool.Stats().Snapshot(), before)
		put.Fences += d.Fences
		put.Flushes += d.Flushes
		for i, ref := range refs {
			t0 := now()
			dst = ar.Get(ref, dst[:0], ctx.Mem)
			b.tr.spans = append(b.tr.spans, span{Name: spanSlabGet, Parent: parent, Req: uint32(i), Start: t0, End: now()})
			if ver, ok := CheckValue(dst, uint64(i+1), len(val)); !ok || ver != uint32(r) {
				return slabReplay{}, fmt.Errorf("slab replay: value %d read back wrong", i)
			}
		}
		for _, ref := range refs {
			ar.Retire(ref)
		}
		ar.DrainQuiesced(ctx.Mem)
	}
	n := float64(values * rounds)
	return slabReplay{fencesPerPut: float64(put.Fences) / n, flushesPerPut: float64(put.Flushes) / n}, nil
}

// replayWire pushes the frames of ops through the codec, both
// directions, and returns the mean frame bytes per operation.
func (b *bench) replayWire(ops []Op, parent int32) (bytesPerOp float64, err error) {
	val := make([]byte, b.sp.ValueLen)
	var buf []byte
	var q wire.Request
	var p wire.Response
	total := 0
	tr := b.tr
	for i := range ops {
		op := &ops[i]
		req := wire.Request{Op: wire.OpGet, ID: uint64(i + 1), Key: op.Key}
		FillValue(val, op.Key, op.Ver)
		if op.Kind == OpPut {
			req.Op, req.Val = wire.OpPut, val
		}
		t0 := now()
		buf, err = wire.AppendRequest(buf[:0], &req)
		t1 := now()
		if err != nil {
			return 0, err
		}
		total += 4 + len(buf)
		t2 := now()
		err = wire.DecodeRequest(buf, &q)
		t3 := now()
		if err != nil {
			return 0, err
		}
		resp := wire.Response{Op: req.Op, Status: wire.StatusOK, ID: req.ID, Found: true, Value: val}
		t4 := now()
		buf = wire.AppendResponse(buf[:0], &resp)
		t5 := now()
		total += 4 + len(buf)
		t6 := now()
		err = wire.DecodeResponse(buf, &p)
		t7 := now()
		if err != nil {
			return 0, err
		}
		r := uint32(i)
		tr.spans = append(tr.spans,
			span{Name: spanWireReqEncode, Parent: parent, Req: r, Start: t0, End: t1},
			span{Name: spanWireReqDecode, Parent: parent, Req: r, Start: t2, End: t3},
			span{Name: spanWireRespEncode, Parent: parent, Req: r, Start: t4, End: t5},
			span{Name: spanWireRespDecode, Parent: parent, Req: r, Start: t6, End: t7})
	}
	return float64(total) / float64(len(ops)), nil
}

// quantileUs reads a quantile, in µs, off one of the program's own
// latency histograms.
func quantileUs(reg *metrics.Registry, name string, labels metrics.Labels, q float64) float64 {
	return float64(reg.Histogram(name, "", labels).Hist().Quantile(q)) / 1e3
}

func meanNs(reg *metrics.Registry, name string) float64 {
	return reg.Histogram(name, "", nil).Hist().Mean()
}

// siblingOpsPerS measures the throughput of the workload's sibling —
// the same store driven by the other number of workers — on the
// reference store. It runs last on that store because its writes are not
// in the primary streams' model.
func (b *bench) siblingOpsPerS(seed uint64) (float64, error) {
	own, err := specByName(b.sp.Name)
	if err != nil {
		return 0, err
	}
	sib, err := specByName(siblings[b.sp.Name])
	if err != nil {
		return 0, err
	}
	alt := b.sp // the store at hand, at whatever scale it was built
	alt.Drivers, alt.Typical = sib.Drivers, sib.Typical
	alt.SegOps = max(200, b.sp.SegOps*sib.SegOps/own.SegOps)
	t, err := attach(alt, b.t.st, b.t.workers[0], nil)
	if err != nil {
		return 0, err
	}
	// Two nominal writers even when one drives: the store already holds
	// the primary streams' versions, so reads are checked for form and
	// owner, not for an exact version.
	r := alt.rules()
	r.exact, r.writers = false, 2
	p := newBench(alt, t, seed^0x70726F6265, 2, r) // "probe"
	segs := make([]segResult, minSegments)
	for i := range segs {
		segs[i] = p.segment(-1)
	}
	for _, rec := range p.recs {
		if rec.chk.Failed > 0 {
			return 0, fmt.Errorf("scaling probe: %d failed operations (%v)", rec.chk.Failed, rec.chk.Notes)
		}
	}
	return opsPerS(alt, segs), nil
}

// runTraced produces a workload's per-layer metrics. It sets the
// workload up twice from the same seed and runs the two stores in turn,
// segment by segment: one untraced, the reference; one traced — the
// program's metrics registries attached, a span around every call. The
// two execute the same operations moments apart, so their ratio is the
// cost of tracing and not the drift of a shared host. End-to-end metrics
// never come from this pass.
func runTraced(sp Spec, seed uint64, seconds float64, outDir string) (*Result, error) {
	res := &Result{Workload: sp.Name, Seed: seed, Traced: true, Metrics: map[string]Metric{}, Samples: map[string]int{}}

	spin1, err := calibrate(1)
	if err != nil {
		return nil, err
	}
	spin2, err := calibrate(2)
	if err != nil {
		return nil, err
	}

	ref, err := setUp(sp, seed, nil)
	if err != nil {
		return nil, err
	}
	defer ref.discard()
	regs := newRegistries()
	b, err := setUp(sp, seed, regs)
	if err != nil {
		return nil, err
	}
	defer b.discard()
	run := b.startTrace()
	var readKeys []uint64
	for i := range b.ops[0] {
		if op := &b.ops[0][i]; op.Kind == sp.readKind() && b.t.st.ShardOf(op.Key) == 0 && len(readKeys) < replayLimit {
			readKeys = append(readKeys, op.Key)
		}
	}
	wireOps := slices.Clone(b.ops[0][:min(len(b.ops[0]), replayLimit)])

	// The background reclaimer's list walks are charged to the same
	// pools; holding it for the count segments makes the counts below
	// exact. It has nothing to reclaim on these workloads. Churn needs it
	// running, and with two drivers or a server in between the
	// interleaving is not repeatable anyway.
	hold := !sp.Wire && sp.Drivers == 1 && sp.Law != LawChurn
	// First the reference store alone, as in the untraced pass: its
	// segments say what the run as a whole looked like and what the Go
	// runtime did meanwhile. Then the two stores in turn.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := ref.window(time.Duration(plainShare*seconds*float64(time.Second)), -1)
	runtime.ReadMemStats(&ms1)

	var refSegs, segs []segResult
	var c0, c1 counters
	for start := time.Now(); len(segs) < max(countSegments, minSegments) || time.Since(start).Seconds() < (1-plainShare)*seconds; {
		refSegs = append(refSegs, ref.segment(-1))
		if len(segs) == 0 {
			if hold {
				b.t.st.PauseReclaim()
			}
			c0 = b.counters()
		}
		segs = append(segs, b.segment(run))
		if len(segs) == countSegments {
			c1 = b.counters()
			if hold {
				b.t.st.ResumeReclaim()
			}
		}
	}
	for _, bb := range []*bench{ref, b} {
		for _, rec := range bb.recs {
			res.Check.merge(&rec.chk)
		}
	}
	res.Segments = len(segs)
	var countWall time.Duration
	for _, s := range segs[:countSegments] {
		countWall += s.dur
	}

	scaling := 0.0
	if siblings[sp.Name] != "" {
		own := opsPerS(sp, plain)
		other, err := ref.siblingOpsPerS(seed)
		if err != nil {
			return nil, err
		}
		if sp.Drivers == 1 {
			scaling = other / own
		} else {
			scaling = own / other
		}
	}

	// Counts per operation over the count window.
	ops := float64(countSegments * len(b.ops) * len(b.ops[0]))
	writes := 0.0
	for _, s := range segs[:countSegments] {
		writes += float64(s.n[OpPut] + s.n[OpRemove])
	}
	perOp := func(v uint64) float64 { return float64(v) / ops }
	perWrite := func(v uint64) float64 { return float64(v) / max(writes, 1) }
	mem := subMem(c1.mem, c0.mem)
	cost := sp.options().Cost
	units := modelUnits(cost, mem)
	res.set("pmem.loads_per_op", perOp(mem.Loads), "count")
	res.set("pmem.misses_per_op", perOp(mem.Misses), "count")
	res.set("pmem.line_hit_rate", 1-float64(mem.Misses)/float64(max(mem.Loads, 1)), "ratio")
	res.set("pmem.prefetches_per_op", perOp(mem.Prefetches), "count")
	res.set("pmem.fences_per_op", perOp(mem.Fences), "count")
	res.set("pmem.flushes_per_op", perOp(mem.Flushes), "count")
	res.set("pmem.stores_per_op", perOp(mem.Stores), "count")
	res.set("pmem.cas_per_op", perOp(mem.CASes), "count")
	res.set("pmem.fences_per_write", perWrite(mem.Fences), "count")
	res.set("pmem.model_units_per_op", perOp(units), "count")
	res.set("pmem.spin_ns_per_unit_1w", spin1, "ns")
	res.set("pmem.spin_ns_per_unit_2w", spin2, "ns")
	// Share of the busy cores' time the cost model's spin loops account
	// for: one core per embedded worker, both cores behind a server.
	busy, spin := float64(sp.Drivers), spin1
	if sp.Wire {
		busy = 2
	}
	if busy > 1 {
		spin = spin2
	}
	res.set("pmem.model_time_share", float64(units)*spin/(float64(countWall.Nanoseconds())*busy), "ratio")

	path := c1.path.Sub(c0.path)
	res.set("skiplist.nodes_per_op", perOp(path.NodesVisited), "count")
	res.set("skiplist.keys_probed_per_op", perOp(path.KeysProbed), "count")
	res.set("skiplist.hint_hit_rate", path.HintHitRate(), "ratio")
	res.set("slab.chunks_alloced_per_write", perWrite(c1.slab.ChunksAlloced-c0.slab.ChunksAlloced), "count")
	res.set("slab.chunks_retired_per_write", perWrite(c1.slab.ChunksRetired-c0.slab.ChunksRetired), "count")
	avgDrain := 0.0
	if d := c1.drains - c0.drains; d > 0 {
		avgDrain = float64(c1.drained-c0.drained) / float64(d)
	}
	res.set("server.avg_drain_size", avgDrain, "count")

	// State at the end of the traced window.
	st := b.t.st
	st.PauseReclaim()
	var ss skiplist.StructStats
	for i := 0; i < st.NumShards(); i++ {
		s := st.ShardList(i).Stats(exec.NewCtx(101, 0))
		ss.Nodes += s.Nodes
		ss.LiveKeys += s.LiveKeys
		ss.Tombs += s.Tombs
		ss.EmptyNodes += s.EmptyNodes
	}
	st.ResumeReclaim()
	res.set("skiplist.node_fill", float64(ss.LiveKeys)/float64(max(ss.Nodes, 1)*st.Options().KeysPerNode), "ratio")
	res.set("skiplist.empty_nodes", float64(ss.EmptyNodes), "count")
	res.set("skiplist.tombs", float64(ss.Tombs), "count")
	sl := st.SlabStats()
	res.set("slab.limbo_chunks_end", float64(sl.LimboChunks), "count")
	res.set("slab.pages", float64(sl.Pages), "count")
	census := st.BlockCensus()
	res.set("alloc.blocks_node", float64(census.Node), "count")
	res.set("alloc.blocks_slab", float64(census.Slab), "count")
	res.set("alloc.blocks_free", float64(census.Free), "count")
	res.set("alloc.blocks_total", float64(census.Total), "count")
	rc := st.ReclaimStats()
	res.set("reclaim.nodes_retired", float64(rc.Retired), "count")
	res.set("reclaim.blocks_freed", float64(rc.Freed), "count")
	res.set("reclaim.limbo_depth_end", float64(rc.LimboDepth), "count")

	// Stand-alone replays of the layers below the store.
	rp := b.tr.open(spanReplay, run)
	b.replaySkiplist(readKeys, rp)
	sr, err := b.replaySlab(rp)
	if err != nil {
		return nil, err
	}
	bytesPerOp := 0.0
	if sp.Wire {
		if bytesPerOp, err = b.replayWire(wireOps, rp); err != nil {
			return nil, err
		}
	}
	b.tr.end(rp)
	b.tr.end(run)
	tr := b.tr
	sum := tr.summary()
	res.set("skiplist.get_ns_mean", sum[spanSkiplistGet].MeanNs, "ns")
	res.set("slab.put_ns_mean", sum[spanSlabPut].MeanNs, "ns")
	res.set("slab.get_ns_mean", sum[spanSlabGet].MeanNs, "ns")
	res.set("slab.fences_per_put", sr.fencesPerPut, "count")
	res.set("slab.flushes_per_put", sr.flushesPerPut, "count")
	codec := 0.0
	for _, w := range []struct {
		name string
		span uint8
	}{
		{"wire.req_encode_ns", spanWireReqEncode}, {"wire.req_decode_ns", spanWireReqDecode},
		{"wire.resp_encode_ns", spanWireRespEncode}, {"wire.resp_decode_ns", spanWireRespDecode},
	} {
		m := sum[w.span].MeanNs
		codec += m
		res.set(w.name, m, "ns")
	}
	res.set("wire.bytes_per_op", bytesPerOp, "B")

	// Spans around the calls into the store, and the store's own
	// histograms of the same calls.
	get, put := sum[spanStoreGet].MeanNs, sum[spanStorePut].MeanNs
	res.set("store.get_ns_mean", get, "ns")
	res.set("store.put_ns_mean", put, "ns")
	res.set("store.remove_ns_mean", sum[spanStoreRemove].MeanNs, "ns")
	res.set("store.scan_ns_mean", sum[spanStoreScan].MeanNs, "ns")
	self := 0.0
	if get > 0 {
		self = get - sum[spanSkiplistGet].MeanNs - sum[spanSlabGet].MeanNs
	}
	res.set("store.self_ns_per_read", self, "ns")
	res.set("store.remove_p50_us", latency(sp, segs, OpRemove, false), "us")
	res.set("store.remove_p99_us", latency(sp, segs, OpRemove, true), "us")
	res.set("store.op_get_p50_us", quantileUs(regs.store, "upsl_op_seconds", metrics.Labels{"op": "get"}, 0.5), "us")
	res.set("store.op_put_p50_us", quantileUs(regs.store, "upsl_op_seconds", metrics.Labels{"op": "insert"}, 0.5), "us")
	res.set("store.batch_commit_p50_us", quantileUs(regs.store, "upsl_batch_commit_seconds", nil, 0.5), "us")
	res.set("store.scaling_2w_over_1w", scaling, "ratio")

	// Behind the server: its own queue-wait and apply histograms, the
	// client's round trips, and what neither explains.
	var rtt hist.Histogram
	if sp.Wire {
		for _, s := range tr.spans {
			if s.Name == spanClientGet || s.Name == spanClientPut {
				rtt.Record(s.End - s.Start)
			}
		}
		res.set("server.queue_wait_p50_us", quantileUs(regs.server, "upsl_server_queue_wait_seconds", nil, 0.5), "us")
		res.set("server.queue_wait_p99_us", quantileUs(regs.server, "upsl_server_queue_wait_seconds", nil, 0.99), "us")
		res.set("server.apply_p50_us", quantileUs(regs.server, "upsl_server_apply_seconds", nil, 0.5), "us")
		res.set("server.apply_p99_us", quantileUs(regs.server, "upsl_server_apply_seconds", nil, 0.99), "us")
		explained := meanNs(regs.server, "upsl_server_queue_wait_seconds") + meanNs(regs.server, "upsl_server_apply_seconds") + codec
		res.set("server.residual_us_per_op", (rtt.Mean()-explained)/1e3, "us")
	} else {
		for _, n := range []string{"server.queue_wait_p50_us", "server.queue_wait_p99_us", "server.apply_p50_us", "server.apply_p99_us", "server.residual_us_per_op"} {
			res.set(n, 0, "us")
		}
	}
	res.set("client.rtt_mean_us", rtt.Mean()/1e3, "us")
	res.set("client.rtt_p50_us", float64(rtt.Quantile(0.5))/1e3, "us")
	res.set("client.rtt_p99_us", float64(rtt.Quantile(0.99))/1e3, "us")

	// The reference store's plain window as a whole: what the best decile
	// leaves out. A stall the program causes now and then — a pause, a
	// hold-up behind the reclaimer — lowers the mean and raises the
	// disturbed share without touching the best decile, exactly as the
	// host's interference does; only paired runs tell the two apart.
	best := opsPerS(sp, plain)
	var plainTime time.Duration
	plainOps, disturbed := 0.0, 0
	for _, s := range plain {
		plainTime += s.dur
		plainOps += float64(s.ops)
		if s.opsPerS < 0.9*best {
			disturbed++
		}
	}
	res.set("run.ops_per_s_mean", plainOps/plainTime.Seconds(), "1/s")
	res.set("run.disturbed_frac", float64(disturbed)/float64(len(plain)), "ratio")
	res.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/plainOps, "count")
	res.set("runtime.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/plainOps, "B")
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	res.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")

	// Tracing overhead: each traced segment against the untraced segment
	// of the same law that ran just before it.
	ratios := make([]float64, len(segs))
	for i := range segs {
		ratios[i] = segs[i].opsPerS / refSegs[i].opsPerS
	}
	res.set("trace.overhead_frac", 1-median(ratios), "ratio")

	// Sweep and durability tail, as in the untraced pass; the tail's
	// reopens give the recovery layer's numbers.
	b.sweep(&res.Check)
	rounds, err := b.tail(regs, &res.Check)
	if err != nil {
		return nil, err
	}
	millis := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	res.set("recovery.attach_ms", medianRound(rounds, func(r *recoveryRound) float64 { return millis(r.stats.Attach) }), "ms")
	res.set("recovery.open_ms", medianRound(rounds, func(r *recoveryRound) float64 { return millis(r.stats.Open) }), "ms")
	res.set("recovery.sweep_ms", medianRound(rounds, func(r *recoveryRound) float64 { return millis(r.stats.Sweep) }), "ms")
	res.set("recovery.pages_swept", medianRound(rounds, func(r *recoveryRound) float64 { return float64(r.stats.PagesSwept) }), "count")
	res.set("recovery.chunks_relinked", medianRound(rounds, func(r *recoveryRound) float64 { return float64(r.stats.ChunksRelinked) }), "count")
	res.set("recovery.lines_reverted", medianRound(rounds, func(r *recoveryRound) float64 { return float64(r.linesReverted) }), "count")

	res.set("check.failed_ops_frac", res.Check.FailedFrac(), "ratio")
	res.set("check.lost_acked_writes", float64(res.Check.Lost), "count")

	res.TraceFile, err = tr.write(outDir, sp.Name, seed, sum, res.Metrics)
	return res, err
}
