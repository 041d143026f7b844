// Package server is the network service layer over an upskiplist.Store:
// a pipelined TCP front end whose write path funnels concurrently
// in-flight client requests into per-shard group commits.
//
// Architecture (see DESIGN.md "Network service layer"):
//
//	conn readers ──> per-shard batcher goroutines ──> Worker.ApplyBatch
//	     │                                                  │
//	     │  (SCAN / BATCH run inline on the conn's worker)  │
//	     └──────────────<── response fan-out <──────────────┘
//
// Each accepted connection gets a reader goroutine (decodes frames,
// enforces per-connection pipeline depth) and a writer goroutine
// (serializes responses, coalescing flushes). Single-key GET/PUT/DEL
// requests are routed by Store.ShardOf to that shard's batcher, which
// drains whatever is in flight into one ApplyBatch — one persistence
// fence amortized over every rider. SCAN and client-side BATCH frames
// execute directly on the connection's own engine worker (a client
// batch already is a group commit).
//
// Request IDs make the protocol pipelined: many requests may be in
// flight per connection and responses may arrive in any order. The
// server guarantees nothing about cross-request ordering — two
// pipelined requests may execute in either order or concurrently; a
// client that needs happens-before must wait for the first response.
//
// Durability: a response is only sent after the operation's group
// commit returned, so every acknowledged write is durable. Requests
// cut off by a crash (killed server) were either never applied or
// applied-but-unacknowledged; TestServerCrashRestart pins this down.
package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"upskiplist"
	"upskiplist/internal/metrics"
	"upskiplist/internal/snapshot"
	"upskiplist/internal/wire"
)

// Config parameterizes a Server. The zero value of every field gets a
// sensible default at New.
type Config struct {
	// Store is the engine the server fronts. Required. The server owns
	// worker thread IDs 0..Shards-1 (batchers) and a slice above them
	// (connections); nothing else may run workers against the store
	// while the server is serving.
	Store *upskiplist.Store

	// MaxConns bounds concurrently served connections (default 64). It
	// is additionally clamped to the store's NumThreads budget minus
	// the batcher workers, since every connection owns an engine worker
	// with a distinct thread ID. Excess connections are rejected with
	// StatusBusy.
	MaxConns int

	// MaxPipeline is the per-connection cap on decoded-but-unanswered
	// requests (default 64). When a client pipelines deeper, the server
	// simply stops reading that connection's socket until responses
	// drain — TCP backpressure, no queue growth.
	MaxPipeline int

	// MaxBatch caps the ops per batcher drain (default 64, clamped to
	// wire.MaxBatchOps).
	MaxBatch int

	// MaxValue bounds the byte length of a single PUT value (default and
	// ceiling wire.MaxValue). Oversize values are rejected with
	// StatusTooLarge before touching the engine.
	MaxValue int

	// MaxDelay is how long a batcher waits for its drain to fill once
	// the first request arrived. 0 (default) drains greedily: take
	// what's queued now, never stall a lone request for riders that may
	// not come.
	MaxDelay time.Duration

	// Dir, when non-empty, is where a graceful Shutdown writes a
	// durable Save of the store.
	Dir string

	// SnapTTL is how long a wire snapshot lease (SNAP_SCAN) survives
	// without being touched before the server releases it, unpinning its
	// era for reclamation (default 30s, minimum 1s). A lease is touched
	// by every SNAP_SCAN page, so only an idle or crashed client loses
	// its snapshot.
	SnapTTL time.Duration

	// StatsInterval enables the periodic one-line engine/server stats
	// log (0 disables).
	StatsInterval time.Duration

	// Metrics, when non-nil, is the registry the server registers its
	// instruments with: request counters, a conns gauge, and the batcher
	// latency histograms (queue wait, apply time, drain size). Leaving
	// it nil keeps the counters (they feed Snapshot) but skips the
	// per-request timestamping the histograms need.
	Metrics *metrics.Registry

	// Logf sinks log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	if c.Store == nil {
		return errors.New("server: Config.Store is required")
	}
	nshards := c.Store.NumShards()
	nthreads := c.Store.Options().NumThreads
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if avail := nthreads - nshards; c.MaxConns > avail {
		if avail <= 0 {
			return fmt.Errorf("server: store has %d thread slots but %d shards — no room for connections",
				nthreads, nshards)
		}
		c.MaxConns = avail
	}
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatch > wire.MaxBatchOps {
		c.MaxBatch = wire.MaxBatchOps
	}
	if c.MaxValue <= 0 || c.MaxValue > wire.MaxValue {
		c.MaxValue = wire.MaxValue
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// Server states.
const (
	stateRunning int32 = iota
	stateDraining
	stateKilled
	stateStopped
)

// Server serves the wire protocol over a Store.
type Server struct {
	cfg Config
	st  *upskiplist.Store

	ln        net.Listener
	batchers  []*batcher
	state     atomic.Int32
	accepting atomic.Bool // accept loop running (health/readiness)

	// threadIDs is the free list of engine worker thread IDs available
	// to connections; its capacity is the connection limit.
	threadIDs chan int

	mu    sync.Mutex
	conns map[*conn]struct{}

	acceptWG  sync.WaitGroup // accept loop
	readerWG  sync.WaitGroup // connection readers (batcher submitters)
	connWG    sync.WaitGroup // writers + closers
	batcherWG sync.WaitGroup

	reg       *metrics.Registry // cfg.Metrics, or a private registry
	ctr       *serverCounters
	met       *srvMetrics // nil unless cfg.Metrics was set
	statsQuit chan struct{}

	// leases tracks wire snapshot leases (SNAP_SCAN); the janitor
	// goroutine expires untouched ones so a crashed client cannot pin
	// reclamation forever.
	leases    *snapshot.Leases
	leaseQuit chan struct{}
}

// snapLease is the server-side handle behind one wire snapshot lease.
// The mutex serializes pages: a lease id may be shared across
// connections (or pipelined on one), and the Snap's per-shard read
// contexts are not safe for concurrent scans.
type snapLease struct {
	mu   sync.Mutex
	snap *upskiplist.Snap
}

// Release implements snapshot.Releaser.
func (l *snapLease) Release() { l.snap.Release() }

// serverCounters are the server-side request counters. They are
// registry-backed so the periodic stats log, Server.Snapshot and the
// /metrics exposition all read the same cells; when Config.Metrics is
// nil they live in a private registry and only feed Snapshot.
type serverCounters struct {
	accepted   *metrics.Counter
	rejected   *metrics.Counter
	gets       *metrics.Counter
	puts       *metrics.Counter
	dels       *metrics.Counter
	scans      *metrics.Counter
	snapScans  *metrics.Counter // SNAP_SCAN pages (incl. opens)
	snapRels   *metrics.Counter // SNAP_RELEASE frames
	batches    *metrics.Counter // client BATCH frames
	batchOps   *metrics.Counter // ops inside client BATCH frames
	malf       *metrics.Counter // malformed frames
	drains     *metrics.Counter // batcher ApplyBatch calls
	drainedOps *metrics.Counter // single-key requests across all drains
}

func newServerCounters(reg *metrics.Registry) *serverCounters {
	req := func(op string) *metrics.Counter {
		return reg.Counter("upsl_server_requests_total",
			"requests served by opcode", metrics.Labels{"op": op})
	}
	return &serverCounters{
		accepted:   reg.Counter("upsl_server_conns_accepted_total", "connections accepted and served", nil),
		rejected:   reg.Counter("upsl_server_conns_rejected_total", "connections refused with BUSY", nil),
		gets:       req("GET"),
		puts:       req("PUT"),
		dels:       req("DEL"),
		scans:      req("SCAN"),
		snapScans:  req("SNAP_SCAN"),
		snapRels:   req("SNAP_RELEASE"),
		batches:    req("BATCH"),
		batchOps:   reg.Counter("upsl_server_batch_ops_total", "operations inside client BATCH frames", nil),
		malf:       reg.Counter("upsl_server_malformed_total", "malformed request frames", nil),
		drains:     reg.Counter("upsl_server_drains_total", "batcher group commits (ApplyBatch calls)", nil),
		drainedOps: reg.Counter("upsl_server_drained_ops_total", "single-key requests carried by batcher drains", nil),
	}
}

// DrainSizeBuckets are the exposition bounds of the drain-size
// histogram, covering MaxBatch up to the wire-protocol ceiling.
var DrainSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// srvMetrics are the batcher latency instruments — only allocated when
// Config.Metrics is set, because queue-wait needs a clock read per
// enqueued request.
type srvMetrics struct {
	queueWait *metrics.Histogram // request enqueue -> drain start
	applyTime *metrics.Histogram // Worker.ApplyBatch duration per drain
	drainSize *metrics.Histogram // single-key requests per drain
}

func newSrvMetrics(reg *metrics.Registry) *srvMetrics {
	return &srvMetrics{
		queueWait: reg.Histogram("upsl_server_queue_wait_seconds",
			"time a single-key request waits in its shard batcher queue", nil),
		applyTime: reg.Histogram("upsl_server_apply_seconds",
			"group-commit (ApplyBatch) duration per batcher drain", nil),
		drainSize: reg.SizeHistogram("upsl_server_drain_size",
			"single-key requests per batcher drain", nil, DrainSizeBuckets),
	}
}

// New builds a Server over cfg.Store. Call Serve to start accepting.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, st: cfg.Store, conns: make(map[*conn]struct{})}
	s.reg = cfg.Metrics
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	s.ctr = newServerCounters(s.reg)
	s.reg.GaugeFunc("upsl_server_conns", "currently served connections", nil, func() float64 {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		return float64(n)
	})
	if cfg.Metrics != nil {
		s.met = newSrvMetrics(cfg.Metrics)
	}
	s.leases = snapshot.NewLeases(cfg.SnapTTL)
	s.leaseQuit = make(chan struct{})
	s.reg.GaugeFunc("upsl_server_snap_leases", "currently held wire snapshot leases", nil, func() float64 {
		return float64(s.leases.Len())
	})
	go s.leaseJanitor()
	nshards := s.st.NumShards()
	s.threadIDs = make(chan int, cfg.MaxConns)
	for i := 0; i < cfg.MaxConns; i++ {
		s.threadIDs <- nshards + i
	}
	for i := 0; i < nshards; i++ {
		b := newBatcher(s, i)
		s.batchers = append(s.batchers, b)
		s.batcherWG.Add(1)
		go func() { defer s.batcherWG.Done(); b.run() }()
	}
	if cfg.StatsInterval > 0 {
		s.statsQuit = make(chan struct{})
		go s.statsLoop()
	}
	return s, nil
}

// leaseJanitor expires untouched snapshot leases a few times per TTL,
// so a client that crashed mid-scan unpins reclamation within about one
// TTL rather than never.
func (s *Server) leaseJanitor() {
	interval := s.leases.TTL() / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.leaseQuit:
			return
		case now := <-t.C:
			if n := s.leases.Expire(now); n > 0 {
				s.cfg.Logf("server: expired %d idle snapshot lease(s)", n)
			}
		}
	}
}

// Serve starts accepting connections on ln. It returns immediately; the
// accept loop runs until Shutdown or Kill.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.accepting.Store(true)
	s.acceptWG.Add(1)
	go s.acceptLoop()
}

// Ready reports whether the server is accepting and serving requests —
// the server's contribution to a readiness probe (the process may gate
// readiness on more, e.g. recovery having completed before Serve).
func (s *Server) Ready() bool { return s.running() && s.accepting.Load() }

// Live reports whether the serving machinery is healthy: the accept
// loop is running, or the server is deliberately winding down (a
// draining server is still live, just not ready). False once stopped
// or if the accept loop died while the server believed itself running.
func (s *Server) Live() bool {
	switch s.state.Load() {
	case stateRunning:
		return s.accepting.Load()
	case stateStopped:
		return false
	default: // draining / killed: shutting down on purpose
		return true
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Store exposes the underlying store (tests, stats).
func (s *Server) Store() *upskiplist.Store { return s.st }

func (s *Server) running() bool { return s.state.Load() == stateRunning }
func (s *Server) killed() bool  { return s.state.Load() == stateKilled }

func (s *Server) acceptLoop() {
	defer func() {
		s.accepting.Store(false)
		s.acceptWG.Done()
	}()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown/Kill
		}
		if !s.running() {
			rejectConn(nc, wire.StatusShutdown, "server is shutting down")
			continue
		}
		select {
		case id := <-s.threadIDs:
			s.ctr.accepted.Inc()
			s.startConn(nc, id)
		default:
			s.ctr.rejected.Inc()
			rejectConn(nc, wire.StatusBusy, "connection limit reached")
		}
	}
}

// rejectConn answers a connection the server will not serve with a
// single error frame (request ID 0) and closes it.
func rejectConn(nc net.Conn, status wire.Status, msg string) {
	resp := wire.Response{Status: status, Msg: msg}
	payload := wire.AppendResponse(nil, &resp)
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	wire.WriteFrame(nc, payload)
	nc.Close()
}

// Shutdown gracefully stops the server: stop accepting, stop reading
// new requests, apply and answer everything already in flight, quiesce
// the batchers, then (if Config.Dir is set) write a durable Save. The
// store is quiesced when Shutdown returns.
func (s *Server) Shutdown() error {
	if !s.state.CompareAndSwap(stateRunning, stateDraining) {
		return errors.New("server: not running")
	}
	s.stop(false)
	if s.cfg.Dir != "" {
		if err := s.st.Save(s.cfg.Dir); err != nil {
			return fmt.Errorf("server: durable save: %w", err)
		}
	}
	return nil
}

// Kill stops the server abruptly, simulating a process crash: sockets
// close mid-conversation, queued requests are dropped unapplied and
// unanswered, and nothing is saved. The only work that completes is the
// ApplyBatch each batcher was already inside (its clients are never
// acknowledged). The store is quiesced when Kill returns, which is what
// lets a test follow with Store.SimulateCrash + Reopen.
func (s *Server) Kill() {
	if !s.state.CompareAndSwap(stateRunning, stateKilled) {
		return
	}
	s.stop(true)
}

// stop runs the shared teardown. Order matters: the accept loop must be
// gone before connections are closed (a connection it registers after
// that pass would never be closed, and its reader never return), readers
// must be gone before batcher channels close (they are the senders), and
// batchers must be gone before connection outboxes close (they are the
// responders).
func (s *Server) stop(kill bool) {
	if s.statsQuit != nil {
		close(s.statsQuit)
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()
	s.mu.Lock()
	for c := range s.conns {
		if kill {
			c.nc.Close()
		} else {
			// Unblock the reader; in-flight requests still complete and
			// their responses still go out. The write deadline bounds the
			// drain against a client that stopped reading its socket.
			c.nc.SetReadDeadline(time.Now())
			c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
		}
	}
	s.mu.Unlock()
	s.readerWG.Wait()
	for _, b := range s.batchers {
		close(b.ch)
	}
	s.batcherWG.Wait()
	s.connWG.Wait()
	// Workers are gone; drop whatever snapshot leases clients left
	// behind so the eras they pin stop gating reclamation (and Save's
	// quiesced drain below).
	close(s.leaseQuit)
	if n := s.leases.ReleaseAll(); n > 0 && !kill {
		s.cfg.Logf("server: released %d leftover snapshot lease(s)", n)
	}
	// Workers are gone; park the store's background reclaimers so the
	// store really is quiesced when stop returns. A graceful shutdown
	// stops them for good (Save's own pause/drain then runs unopposed); a
	// kill leaves them merely paused — the abrupt-crash contract promises
	// nothing mutates after Kill, and the SimulateCrash a test may issue
	// next pauses idempotently.
	if kill {
		s.st.PauseReclaim()
	} else {
		s.st.DisableOnlineReclaim()
	}
	s.state.Store(stateStopped)
	if !kill {
		s.logStats("final")
	}
}

// ---------------------------------------------------------------------
// Connections.

// conn is one served connection.
type conn struct {
	srv      *Server
	nc       net.Conn
	threadID int
	w        *upskiplist.Worker

	// tokens bounds decoded-but-unanswered requests (pipeline depth):
	// the reader acquires before dispatching, the writer releases after
	// the response hits the socket.
	tokens chan struct{}
	// outbox carries encoded response frames to the writer. Capacity
	// MaxPipeline makes responder sends non-blocking in steady state
	// (there can never be more unanswered requests than tokens).
	outbox chan []byte
	// pending counts dispatched requests whose response has not yet
	// been enqueued; the closer waits for it before closing outbox.
	pending    sync.WaitGroup
	readerDone chan struct{}

	// Reader-private scratch. scanVals is the flat arena behind the
	// value slices in scanBuf (valid until the next scan on this conn).
	frameBuf []byte
	req      wire.Request
	batchOps []upskiplist.Op
	batchRes []upskiplist.OpResult
	scanBuf  []wire.Pair
	scanVals []byte
}

func (s *Server) startConn(nc net.Conn, threadID int) {
	c := &conn{
		srv:        s,
		nc:         nc,
		threadID:   threadID,
		w:          s.st.NewWorker(threadID),
		tokens:     make(chan struct{}, s.cfg.MaxPipeline),
		outbox:     make(chan []byte, s.cfg.MaxPipeline),
		readerDone: make(chan struct{}),
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	s.readerWG.Add(1)
	s.connWG.Add(2)
	go c.readLoop()
	go c.writeLoop()
	go c.closeLoop()
}

// respond encodes resp, hands the frame to the writer and retires the
// request. Called by batchers and by the reader (inline ops).
func (c *conn) respond(resp *wire.Response) {
	payload := wire.AppendResponse(make([]byte, 0, 64), resp)
	c.outbox <- payload
	c.pending.Done()
}

// readLoop decodes request frames and dispatches them until EOF, a
// malformed frame, or server stop.
func (c *conn) readLoop() {
	defer func() {
		c.srv.readerWG.Done()
		close(c.readerDone)
	}()
	br := newBufReader(c.nc)
	for {
		payload, err := wire.ReadFrame(br, c.frameBuf)
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				// Tell the client why before hanging up (ID 0: the
				// request was never decoded).
				c.srv.ctr.malf.Inc()
				c.tokens <- struct{}{}
				c.pending.Add(1)
				c.respond(&wire.Response{Status: wire.StatusTooLarge, Msg: err.Error()})
			}
			return
		}
		c.frameBuf = payload[:0]
		if err := wire.DecodeRequest(payload, &c.req); err != nil {
			// wire's decode errors wrap the sentinel that names the
			// failure; StatusOf turns it back into the wire status
			// (MALFORMED for corrupt frames, TOO_LARGE for frames that
			// exceed protocol bounds).
			c.srv.ctr.malf.Inc()
			c.tokens <- struct{}{}
			c.pending.Add(1)
			c.respond(&wire.Response{
				Op: c.req.Op, Status: wire.StatusOf(err), ID: c.req.ID, Msg: err.Error(),
			})
			return
		}
		c.tokens <- struct{}{} // pipeline-depth backpressure
		c.pending.Add(1)
		c.dispatch()
	}
}

// dispatch routes the decoded request: singles to the owning shard's
// batcher, SCAN/BATCH inline on this connection's worker.
func (c *conn) dispatch() {
	q := &c.req
	switch q.Op {
	case wire.OpGet, wire.OpPut, wire.OpDel:
		switch q.Op {
		case wire.OpGet:
			c.srv.ctr.gets.Inc()
		case wire.OpPut:
			c.srv.ctr.puts.Inc()
			if len(q.Val) > c.srv.cfg.MaxValue {
				c.respond(&wire.Response{
					Op: q.Op, Status: wire.StatusTooLarge, ID: q.ID,
					Msg: fmt.Sprintf("value of %d bytes exceeds server max %d", len(q.Val), c.srv.cfg.MaxValue),
				})
				return
			}
		default:
			c.srv.ctr.dels.Inc()
		}
		// q.Val is a decode-time copy, safe to hand to another goroutine.
		r := request{c: c, id: q.ID, kind: q.Op, key: q.Key, val: q.Val}
		if c.srv.met != nil {
			r.enq = metrics.Now() // queue-wait clock starts at enqueue
		}
		c.srv.batchers[c.srv.st.ShardOf(q.Key)].ch <- r
	case wire.OpScan:
		c.srv.ctr.scans.Inc()
		c.runScan(q)
	case wire.OpSnapScan:
		c.srv.ctr.snapScans.Inc()
		c.runSnapScan(q)
	case wire.OpSnapRelease:
		c.srv.ctr.snapRels.Inc()
		c.runSnapRelease(q)
	case wire.OpBatch:
		c.srv.ctr.batches.Inc()
		c.srv.ctr.batchOps.Add(uint64(len(q.Batch)))
		c.runBatch(q)
	}
}

// runScan executes a SCAN on the connection's worker and responds.
func (c *conn) runScan(q *wire.Request) {
	limit := int(q.Limit)
	if limit <= 0 || limit > wire.MaxScanLimit {
		limit = wire.MaxScanLimit
	}
	c.scanBuf, c.scanVals = c.scanBuf[:0], c.scanVals[:0]
	c.w.Scan(q.Lo, q.Hi, func(k uint64, v []byte) bool {
		// The callback's value slice dies with the callback; park a copy
		// in the conn's flat arena until the response is encoded.
		off := len(c.scanVals)
		c.scanVals = append(c.scanVals, v...)
		c.scanBuf = append(c.scanBuf, wire.Pair{Key: k, Value: c.scanVals[off:len(c.scanVals):len(c.scanVals)]})
		return len(c.scanBuf) < limit
	})
	c.respond(&wire.Response{Op: wire.OpScan, ID: q.ID, Pairs: c.scanBuf})
}

// runSnapScan serves one page of a frozen snapshot. Snap == 0 opens a
// new lease (Store.Snapshot) and returns its id with the first page;
// otherwise the request pages an existing lease, touch-renewing its
// TTL. The page is read under the lease's mutex — the Snap handle is
// not safe for concurrent scans.
func (c *conn) runSnapScan(q *wire.Request) {
	s := c.srv
	var l *snapLease
	id := q.Snap
	if id == 0 {
		sn, err := s.st.Snapshot()
		if err != nil {
			status := wire.StatusErr
			if errors.Is(err, upskiplist.ErrTooManySnapshots) {
				status = wire.StatusBusy
			}
			c.respond(&wire.Response{Op: wire.OpSnapScan, Status: status, ID: q.ID, Msg: err.Error()})
			return
		}
		l = &snapLease{snap: sn}
		id = s.leases.Add(l)
	} else {
		r, ok := s.leases.Get(id)
		if !ok {
			c.respond(&wire.Response{
				Op: wire.OpSnapScan, Status: wire.StatusErr, ID: q.ID,
				Msg: fmt.Sprintf("unknown or expired snapshot lease %d", id),
			})
			return
		}
		l = r.(*snapLease)
	}
	limit := int(q.Limit)
	if limit <= 0 || limit > wire.MaxScanLimit {
		limit = wire.MaxScanLimit
	}
	c.scanBuf, c.scanVals = c.scanBuf[:0], c.scanVals[:0]
	l.mu.Lock()
	err := l.snap.Scan(q.Lo, q.Hi, func(k uint64, v []byte) bool {
		off := len(c.scanVals)
		c.scanVals = append(c.scanVals, v...)
		c.scanBuf = append(c.scanBuf, wire.Pair{Key: k, Value: c.scanVals[off:len(c.scanVals):len(c.scanVals)]})
		return len(c.scanBuf) < limit
	})
	l.mu.Unlock()
	if err != nil {
		c.respond(&wire.Response{Op: wire.OpSnapScan, Status: wire.StatusOf(err), ID: q.ID, Msg: err.Error()})
		return
	}
	c.respond(&wire.Response{Op: wire.OpSnapScan, ID: q.ID, Snap: id, Pairs: c.scanBuf})
}

// runSnapRelease drops a snapshot lease; Found reports whether it still
// existed (false when already released or expired).
func (c *conn) runSnapRelease(q *wire.Request) {
	ok := c.srv.leases.Release(q.Snap)
	c.respond(&wire.Response{Op: wire.OpSnapRelease, ID: q.ID, Found: ok})
}

// runBatch executes a client BATCH frame as one engine group commit on
// the connection's worker. The whole frame is applied by a single
// Worker.ApplyBatch call — it already carries its own per-shard group
// commit, so re-queueing it through the shard batchers would only add
// latency without saving fences.
func (c *conn) runBatch(q *wire.Request) {
	c.batchOps = c.batchOps[:0]
	for i, op := range q.Batch {
		kind := upskiplist.OpInsert
		switch op.Kind {
		case wire.OpGet:
			kind = upskiplist.OpGet
		case wire.OpDel:
			kind = upskiplist.OpRemove
		}
		if kind == upskiplist.OpInsert && len(op.Value) > c.srv.cfg.MaxValue {
			c.respond(&wire.Response{
				Op: wire.OpBatch, Status: wire.StatusTooLarge, ID: q.ID,
				Msg: fmt.Sprintf("op %d: value of %d bytes exceeds server max %d", i, len(op.Value), c.srv.cfg.MaxValue),
			})
			return
		}
		c.batchOps = append(c.batchOps, upskiplist.Op{Kind: kind, Key: op.Key, Value: op.Value})
	}
	if cap(c.batchRes) < len(c.batchOps) {
		c.batchRes = make([]upskiplist.OpResult, len(c.batchOps))
	}
	res := c.w.ApplyBatchInto(c.batchOps, c.batchRes[:len(c.batchOps)])
	resp := wire.Response{Op: wire.OpBatch, ID: q.ID, Results: make([]wire.OpResult, len(res))}
	for i, r := range res {
		if r.Err != nil {
			c.respond(&wire.Response{
				Op: wire.OpBatch, Status: wire.StatusOf(r.Err), ID: q.ID,
				Msg: fmt.Sprintf("op %d: %v", i, r.Err),
			})
			return
		}
		resp.Results[i] = wire.OpResult{Found: r.Found, Value: r.Value}
	}
	c.respond(&resp)
}

// writeLoop serializes response frames, flushing when the outbox goes
// momentarily empty so pipelined responses coalesce into few writes.
func (c *conn) writeLoop() {
	defer c.srv.connWG.Done()
	bw := newBufWriter(c.nc)
	var werr error
	for frame := range c.outbox {
		if werr == nil {
			werr = wire.WriteFrame(bw, frame)
		}
		select {
		case <-c.tokens:
		default:
		}
		if werr == nil && len(c.outbox) == 0 {
			werr = bw.Flush()
		}
	}
	if werr == nil {
		bw.Flush()
	}
	c.nc.Close()
}

// closeLoop retires the connection: once the reader is done and every
// dispatched request has been answered (or dropped), the outbox closes,
// the writer drains out, and the worker thread ID returns to the pool.
func (c *conn) closeLoop() {
	defer c.srv.connWG.Done()
	<-c.readerDone
	c.pending.Wait()
	close(c.outbox)
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	c.srv.threadIDs <- c.threadID
}
