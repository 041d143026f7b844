// Package server is the network service layer over an upskiplist.Store:
// a pipelined TCP front end in which every connection runs its own
// requests to completion on its own engine worker.
//
// Architecture (see DESIGN.md "Network service layer"):
//
//	client ──> conn goroutine: read one frame, decode every further
//	   ^       frame already buffered (≤ MaxPipeline), apply the drained
//	   │       GET/PUT/DEL as one Worker.ApplyBatchInto, run SCAN/SNAP_*/
//	   └────── BATCH inline, encode every response, one Write
//
// Each accepted connection is one goroutine and owns one engine worker.
// A pass of its loop is a per-connection group commit: the single-key
// requests it drained go to the engine as one batch, grouped per shard
// with one trailing fence each, and SCAN, SNAP_SCAN, SNAP_RELEASE and
// client BATCH frames run in arrival order after the singles decoded
// before them. There is no queue between a connection and the engine,
// and no goroutine per shard.
//
// Request IDs make the protocol pipelined: many requests may be in
// flight per connection. Within one pass responses go out in request
// order, but clients must match them by ID; the server guarantees nothing
// about ordering across connections, and a client that needs
// happens-before must wait for the first response.
//
// Durability: a response is only sent after the ApplyBatchInto that
// carried it returned, so every acknowledged write is durable. Requests
// cut off by a crash (killed server) were either never applied or
// applied-but-unacknowledged; TestServerCrashRestart pins this down.
package server

import (
	"bufio"
	"encoding/binary"
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
	// worker thread IDs 1..MaxConns, one per connection; ID 0 stays with
	// the store's administrative contexts. Nothing else
	// may run workers against the store while the server is serving.
	Store *upskiplist.Store

	// MaxConns bounds concurrently served connections (default 64). It
	// is additionally clamped to the store's NumThreads budget minus
	// one, since every connection owns an engine worker with a distinct
	// thread ID. Excess connections are rejected with StatusBusy.
	MaxConns int

	// MaxPipeline caps the frames one connection decodes per pass
	// (default 64): its drain, applied and answered before the socket is
	// read again. A client pipelining deeper waits in TCP — backpressure
	// without a queue.
	MaxPipeline int

	// MaxValue bounds the byte length of a single PUT value (default and
	// ceiling wire.MaxValue). Oversize values are rejected with
	// StatusTooLarge before touching the engine.
	MaxValue int

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
	// instruments with: request counters, a conns gauge, and the drain
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
	nthreads := c.Store.Options().NumThreads
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if avail := nthreads - 1; c.MaxConns > avail {
		if avail <= 0 {
			return fmt.Errorf("server: store has %d thread slots — no room for connections", nthreads)
		}
		c.MaxConns = avail
	}
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = 64
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
	state     atomic.Int32
	accepting atomic.Bool // accept loop running (health/readiness)

	// threadIDs is the free list of engine worker thread IDs available
	// to connections; its capacity is the connection limit.
	threadIDs chan int

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed workerTally // counters of connections already gone (under mu)

	acceptWG sync.WaitGroup // accept loop
	serveWG  sync.WaitGroup // connection goroutines

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
	drains     *metrics.Counter // connection drains (ApplyBatchInto calls)
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
		drains:     reg.Counter("upsl_server_drains_total", "connection drains (ApplyBatchInto calls)", nil),
		drainedOps: reg.Counter("upsl_server_drained_ops_total", "single-key requests carried by connection drains", nil),
	}
}

// DrainSizeBuckets are the exposition bounds of the drain-size
// histogram, covering MaxPipeline up to the wire-protocol batch ceiling.
var DrainSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// srvMetrics are the drain latency instruments — only allocated when
// Config.Metrics is set, because queue-wait needs a clock read per
// decoded request.
type srvMetrics struct {
	queueWait *metrics.Histogram // request decode -> drain apply start
	applyTime *metrics.Histogram // Worker.ApplyBatchInto duration per drain
	drainSize *metrics.Histogram // single-key requests per drain
}

func newSrvMetrics(reg *metrics.Registry) *srvMetrics {
	return &srvMetrics{
		queueWait: reg.Histogram("upsl_server_queue_wait_seconds",
			"time from a single-key request's decode to the start of its drain's apply", nil),
		applyTime: reg.Histogram("upsl_server_apply_seconds",
			"group-commit (ApplyBatchInto) duration per connection drain", nil),
		drainSize: reg.SizeHistogram("upsl_server_drain_size",
			"single-key requests per connection drain", nil, DrainSizeBuckets),
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
	s.threadIDs = make(chan int, cfg.MaxConns)
	for id := 1; id <= cfg.MaxConns; id++ {
		s.threadIDs <- id
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
// new requests, apply and answer every frame already decoded, then (if
// Config.Dir is set) write a durable Save. The store is quiesced when
// Shutdown returns.
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
// close mid-conversation, nothing decoded after the kill is applied, and
// nothing is saved. The only work that completes is the drain each
// connection was already applying, and its responses are dropped. The
// store is quiesced when Kill returns, which is what lets a test follow
// with Store.SimulateCrash + Reopen.
func (s *Server) Kill() {
	if !s.state.CompareAndSwap(stateRunning, stateKilled) {
		return
	}
	s.stop(true)
}

// stop runs the shared teardown. The accept loop must be gone before
// connections are closed: a connection it registers after that pass
// would never be closed, and its goroutine never return.
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
			// Unblock the read; frames already decoded still complete and
			// their responses still go out. The write deadline bounds the
			// drain against a client that stopped reading its socket.
			c.nc.SetReadDeadline(time.Now())
			c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
		}
	}
	s.mu.Unlock()
	s.serveWG.Wait()
	// Workers are gone, and with them every retire; drop whatever
	// snapshot leases clients left behind so the eras they pin stop
	// gating reclamation (and Save's quiesced drain below).
	close(s.leaseQuit)
	if n := s.leases.ReleaseAll(); n > 0 && !kill {
		s.cfg.Logf("server: released %d leftover snapshot lease(s)", n)
	}
	s.state.Store(stateStopped)
	if !kill {
		s.logStats("final")
	}
}

// ---------------------------------------------------------------------
// Connections.

// conn is one served connection: one goroutine, one engine worker.
type conn struct {
	srv      *Server
	nc       net.Conn
	threadID int
	w        *upskiplist.Worker
	tally    workerTally // w's counters as of the last pass

	// The drain: decoded single-key requests not yet applied, in
	// arrival order. ops[i] is pend[i]'s engine op; res is the
	// result buffer, MaxPipeline long.
	pend []pending
	ops  []upskiplist.Op
	res  []upskiplist.OpResult

	// out holds the pass's encoded response frames, sent with one Write;
	// payload is the scratch one response is encoded into.
	out     []byte
	payload []byte

	// Decode and inline-op scratch. scanVals is the flat arena behind the
	// value slices in scanBuf (valid until the next scan on this conn).
	frameBuf []byte
	req      wire.Request
	batchOps []upskiplist.Op
	batchRes []upskiplist.OpResult
	scanBuf  []wire.Pair
	scanVals []byte
}

// pending is what a drained single-key request's response needs.
type pending struct {
	id  uint64
	op  wire.Opcode
	enq int64 // metrics.Now() at decode; 0 when metrics are off
}

func (s *Server) startConn(nc net.Conn, threadID int) {
	c := &conn{
		srv:      s,
		nc:       nc,
		threadID: threadID,
		w:        s.st.NewWorker(threadID),
		res:      make([]upskiplist.OpResult, s.cfg.MaxPipeline),
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.serveWG.Add(1)
	go c.serve()
}

// serve is the connection's goroutine. Each pass blocks for one frame,
// decodes every further complete frame already buffered (up to
// MaxPipeline), applies the drained singles as one group commit, and
// sends every response of the pass with one Write. It returns at EOF, a
// malformed frame, a failed write, or server stop.
func (c *conn) serve() {
	defer c.exit()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		more := c.next(br)
		for n := 1; more && n < c.srv.cfg.MaxPipeline && frameBuffered(br); n++ {
			more = c.next(br)
		}
		c.flush()
		c.tally.publish(c.w.Stats())
		if c.srv.killed() {
			return // applied (and durable) but never acknowledged
		}
		if len(c.out) > 0 {
			if _, err := c.nc.Write(c.out); err != nil {
				return
			}
			c.out = c.out[:0]
		}
		if !more {
			return
		}
	}
}

// frameBuffered reports whether br holds a whole frame, so reading it
// cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false // Peek would block for the rest of the header
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// exit retires the connection: the socket closes, its counters fold
// into the server's closed-connection totals, and the worker thread ID
// returns to the pool.
func (c *conn) exit() {
	s := c.srv
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.closed.add(&c.tally)
	s.mu.Unlock()
	s.threadIDs <- c.threadID
	s.serveWG.Done()
}

// next reads and dispatches one frame. It reports whether the
// connection may read on after this pass.
func (c *conn) next(br *bufio.Reader) bool {
	payload, err := wire.ReadFrame(br, c.frameBuf)
	if err != nil {
		if errors.Is(err, wire.ErrTooLarge) {
			// Tell the client why before hanging up (ID 0: the request
			// was never decoded).
			c.srv.ctr.malf.Inc()
			c.flush()
			c.respond(&wire.Response{Status: wire.StatusTooLarge, Msg: err.Error()})
		}
		return false
	}
	c.frameBuf = payload[:0]
	if err := wire.DecodeRequest(payload, &c.req); err != nil {
		// wire's decode errors wrap the sentinel that names the failure;
		// StatusOf turns it back into the wire status (MALFORMED for
		// corrupt frames, TOO_LARGE for frames that exceed protocol
		// bounds).
		c.srv.ctr.malf.Inc()
		c.flush()
		c.respond(&wire.Response{
			Op: c.req.Op, Status: wire.StatusOf(err), ID: c.req.ID, Msg: err.Error(),
		})
		return false
	}
	if c.srv.killed() {
		return false
	}
	c.dispatch()
	return true
}

// dispatch adds a decoded single to the drain, or runs any other frame
// inline after applying the singles decoded before it.
func (c *conn) dispatch() {
	s, q := c.srv, &c.req
	switch q.Op {
	case wire.OpGet, wire.OpPut, wire.OpDel:
		kind := upskiplist.OpGet
		switch q.Op {
		case wire.OpGet:
			s.ctr.gets.Inc()
		case wire.OpPut:
			s.ctr.puts.Inc()
			kind = upskiplist.OpInsert
			if len(q.Val) > s.cfg.MaxValue {
				c.flush()
				c.respond(&wire.Response{
					Op: q.Op, Status: wire.StatusTooLarge, ID: q.ID,
					Msg: fmt.Sprintf("value of %d bytes exceeds server max %d", len(q.Val), s.cfg.MaxValue),
				})
				return
			}
		default:
			s.ctr.dels.Inc()
			kind = upskiplist.OpRemove
		}
		p := pending{id: q.ID, op: q.Op}
		if s.met != nil {
			p.enq = metrics.Now() // queue-wait clock starts at decode
		}
		c.pend = append(c.pend, p)
		// q.Val is a decode-time copy, which the drain may keep.
		c.ops = append(c.ops, upskiplist.Op{Kind: kind, Key: q.Key, Value: q.Val})
		return
	}
	c.flush()
	switch q.Op {
	case wire.OpScan:
		s.ctr.scans.Inc()
		c.runScan(q)
	case wire.OpSnapScan:
		s.ctr.snapScans.Inc()
		c.runSnapScan(q)
	case wire.OpSnapRelease:
		s.ctr.snapRels.Inc()
		c.runSnapRelease(q)
	case wire.OpBatch:
		s.ctr.batches.Inc()
		s.ctr.batchOps.Add(uint64(len(q.Batch)))
		c.runBatch(q)
	}
}

// flush applies the drain as one Worker.ApplyBatchInto — grouped per
// shard, one trailing fence each — and encodes its responses in request
// order.
func (c *conn) flush() {
	n := len(c.ops)
	if n == 0 {
		return
	}
	s, m := c.srv, c.srv.met
	var start int64
	if m != nil {
		// One clock read ends every rider's queue wait and starts the
		// apply timer.
		start = metrics.Now()
		for _, p := range c.pend {
			m.queueWait.Observe(start - p.enq)
		}
		m.drainSize.Observe(int64(n))
	}
	res := c.w.ApplyBatchInto(c.ops, c.res[:n])
	if m != nil {
		m.applyTime.Since(start)
	}
	s.ctr.drains.Inc()
	s.ctr.drainedOps.Add(uint64(n))
	for i, p := range c.pend {
		resp := wire.Response{Op: p.op, ID: p.id, Found: res[i].Found, Value: res[i].Value}
		if res[i].Err != nil {
			resp.Status = wire.StatusOf(res[i].Err)
			resp.Msg = res[i].Err.Error()
		}
		c.respond(&resp)
	}
	clear(c.ops) // release the PUT values
	c.pend, c.ops = c.pend[:0], c.ops[:0]
}

// respond appends resp's frame to the pass's output. A response too big
// for one frame is answered with StatusTooLarge instead.
func (c *conn) respond(resp *wire.Response) {
	c.payload = wire.AppendResponse(c.payload[:0], resp)
	if len(c.payload) > wire.MaxFrame {
		c.payload = wire.AppendResponse(c.payload[:0], &wire.Response{
			Op: resp.Op, Status: wire.StatusTooLarge, ID: resp.ID,
			Msg: fmt.Sprintf("response of %d bytes exceeds MaxFrame", len(c.payload)),
		})
	}
	c.out = wire.AppendFrame(c.out, c.payload)
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
// the connection's worker: a single Worker.ApplyBatchInto, which already
// carries its own per-shard group commit.
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
