package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"upskiplist"
	"upskiplist/internal/client"
	"upskiplist/internal/metrics"
	"upskiplist/internal/server"
	"upskiplist/internal/wire"
)

// clockBase anchors now(): time.Since on a monotonic base is a single
// clock read.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// recorder is one driver's private record of the calls it made: a
// latency per call, the verdict on every result, and — in the traced
// pass — a span per call.
type recorder struct {
	chk Check
	r   rules
	// timed: record the latency (ns) of every call in lat, by op kind.
	// Off for sweeps and the durability tail.
	timed bool
	lat   [numKinds][]uint32
	// oracle, when set, replaces the stream's per-op expectation: reads
	// are checked against the store's final state.
	oracle *Oracle
	lost   bool
	// traced: record a span per call in spans. names maps an op kind to
	// the span of this driver's call into the program; parent is the
	// driver's segment span.
	traced bool
	spans  []span
	names  *[numKinds]uint8
	parent int32
	driver uint8
}

func (rec *recorder) done(kind uint8, req int, t0, t1 int64) {
	if rec.timed {
		rec.lat[kind] = append(rec.lat[kind], uint32(min(t1-t0, 1<<32-1)))
	}
	if rec.traced {
		rec.spans = append(rec.spans, span{
			Name: rec.names[kind], Driver: rec.driver, Parent: rec.parent,
			Req: uint32(req), Start: t0, End: t1,
		})
	}
}

func (rec *recorder) checkGet(op *Op, val []byte, found bool) {
	if rec.oracle != nil {
		rec.oracle.read(&rec.chk, op.Key, val, found, rec.lost)
		return
	}
	rec.chk.get(rec.r, op, val, found)
}

// driver is one closed-loop caller: it issues ops in order, waits for
// each reply (or keeps Depth of them in flight), and hands every result
// to rec.
type driver interface {
	run(ops []Op, rec *recorder)
}

// workerDriver calls an embedded engine worker.
type workerDriver struct {
	w   *upskiplist.Worker
	buf []byte
	sc  scanCheck
}

func (d *workerDriver) run(ops []Op, rec *recorder) {
	w, r := d.w, rec.r
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpGet:
			t0 := now()
			v, ok := w.Get(op.Key)
			rec.done(OpGet, i, t0, now())
			rec.checkGet(op, v, ok)
		case OpPut:
			FillValue(d.buf, op.Key, op.Ver)
			t0 := now()
			old, existed, err := w.Put(op.Key, d.buf)
			rec.done(OpPut, i, t0, now())
			rec.chk.put(r, op, old, existed, err)
		case OpRemove:
			t0 := now()
			old, ok, err := w.Remove(op.Key)
			rec.done(OpRemove, i, t0, now())
			rec.chk.remove(r, op, old, ok, err)
		case OpScan:
			d.sc.begin(op.Key)
			want := int(op.N)
			t0 := now()
			err := w.Scan(op.Key, upskiplist.KeyMax, func(k uint64, v []byte) bool {
				d.sc.visit(r, k, v)
				return d.sc.n < want
			})
			rec.done(OpScan, i, t0, now())
			rec.chk.scan(op, &d.sc, err)
		}
	}
}

// connDriver is one client connection keeping depth requests in flight.
type connDriver struct {
	c     *client.Client
	depth int
	buf   []byte
	done  chan *client.Call
	sent  uint64  // requests issued on c so far; request IDs count from 1
	start []int64 // issue time of each op of the current run
}

func (d *connDriver) run(ops []Op, rec *recorder) {
	base := d.sent
	d.start = d.start[:0]
	issued, completed := 0, 0
	for completed < len(ops) {
		for issued < len(ops) && issued-completed < d.depth {
			op := &ops[issued]
			req := wire.Request{Key: op.Key}
			switch op.Kind {
			case OpGet:
				req.Op = wire.OpGet
			case OpPut:
				req.Op = wire.OpPut
				FillValue(d.buf, op.Key, op.Ver)
				req.Val = d.buf // encoded before Go returns
			case OpRemove:
				req.Op = wire.OpDel
			default:
				panic("benchmark: scans are not part of any wire workload")
			}
			d.sent++
			d.start = append(d.start, now())
			d.c.Go(&req, d.done)
			issued++
		}
		call := <-d.done
		t1 := now()
		completed++
		i := int(call.Req.ID - base - 1)
		if i < 0 || i >= len(ops) {
			rec.chk.Attempted++
			rec.chk.failf("response carries request id %d, outside the segment", call.Req.ID)
			continue
		}
		op := &ops[i]
		rec.done(op.Kind, i, d.start[i], t1)
		err := call.Err
		if err == nil {
			err = call.Resp.Err()
		}
		switch op.Kind {
		case OpGet:
			if err != nil {
				rec.chk.Attempted++
				rec.chk.failf("GET %d: %v", op.Key, err)
				continue
			}
			rec.checkGet(op, call.Resp.Value, call.Resp.Found)
		case OpPut:
			rec.chk.put(rec.r, op, call.Resp.Value, call.Resp.Found, err)
		case OpRemove:
			rec.chk.remove(rec.r, op, call.Resp.Value, call.Resp.Found, err)
		}
	}
}

// target is a loaded store with its drivers attached: embedded workers,
// or a server on loopback and its client connections.
type target struct {
	st      *upskiplist.Store
	drivers []driver
	workers []*upskiplist.Worker // embedded only
	srv     *server.Server       // wire only
	clients []*client.Client
}

// attach builds the drivers of sp over st. first, when non-nil, is the
// worker that preloaded the store; it becomes driver 0 of an embedded
// workload so the run starts with the caches the preload left. regs
// carries the traced pass's registries (nil in the untraced pass).
func attach(sp Spec, st *upskiplist.Store, first *upskiplist.Worker, regs *registries) (*target, error) {
	t := &target{st: st}
	if !sp.Wire {
		for i := 0; i < sp.Drivers; i++ {
			w := first
			if i > 0 || w == nil {
				w = st.NewWorker(i)
			}
			t.workers = append(t.workers, w)
			t.drivers = append(t.drivers, &workerDriver{w: w, buf: make([]byte, sp.ValueLen)})
		}
		return t, nil
	}
	cfg := server.Config{Store: st, Logf: log.New(io.Discard, "", 0).Printf}
	if regs != nil {
		cfg.Metrics = regs.server
	}
	// server.New switches the store's snapshot subsystem on, which the
	// background reclaimers read unsynchronised; hold them at a cycle
	// boundary meanwhile.
	st.PauseReclaim()
	srv, err := server.New(cfg)
	st.ResumeReclaim()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	srv.Serve(ln)
	t.srv = srv
	for i := 0; i < sp.Drivers; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			t.kill()
			return nil, fmt.Errorf("dial: %w", err)
		}
		t.clients = append(t.clients, c)
		// One round trip before anything else: Dial returns once the kernel
		// has the connection, which can be before the server's accept loop
		// has registered it, and a Server.Kill in that gap never closes it.
		if _, _, err := c.GetNoCtx(1); err != nil {
			t.kill()
			return nil, fmt.Errorf("first round trip: %w", err)
		}
		if regs != nil {
			c.EnableMetrics(regs.client)
		}
		t.drivers = append(t.drivers, &connDriver{
			c: c, depth: sp.Depth, buf: make([]byte, sp.ValueLen),
			done: make(chan *client.Call, max(sp.Depth, sweepDepth)),
			sent: 1, // the round trip above
		})
	}
	return t, nil
}

// kill stops a wire target the way a process crash would (Server.Kill:
// sockets closed, queued requests dropped, nothing saved) and waits for
// its goroutines. An embedded target has nothing to stop: its workers
// are simply not called again.
func (t *target) kill() {
	if t.srv == nil {
		return
	}
	t.srv.Kill()
	for _, c := range t.clients {
		c.Close()
	}
	t.srv, t.clients = nil, nil
}

// registries are the metrics registries the traced pass attaches to the
// program's own instrumentation points.
type registries struct {
	store, server, client *metrics.Registry
}

func newRegistries() *registries {
	return &registries{store: metrics.NewRegistry(), server: metrics.NewRegistry(), client: metrics.NewRegistry()}
}

// runAll executes ops[d] on driver d, all drivers at once, and returns
// the wall time from the common start to the last driver's finish.
func (t *target) runAll(ops [][]Op, recs []*recorder) time.Duration {
	start := time.Now()
	if len(t.drivers) == 1 {
		t.drivers[0].run(ops[0], recs[0])
		return time.Since(start)
	}
	var wg sync.WaitGroup
	for d := range t.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.drivers[d].run(ops[d], recs[d])
		}()
	}
	wg.Wait()
	return time.Since(start)
}
