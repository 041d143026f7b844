// Package client is the Go client for upsl-server's wire protocol.
//
// A Client owns one TCP connection and is safe for concurrent use: many
// goroutines may issue requests, and the client pipelines them — every
// request goes out immediately with a unique ID, and a reader goroutine
// matches responses (which may arrive in any order) back to their
// callers. The synchronous helpers (Get, Put, ...) block their caller
// but not the connection; Go issues a request asynchronously for
// callers that manage their own pipeline depth.
//
// Every synchronous helper takes a context. Cancellation and deadlines
// release the waiting caller and abandon the call — the request may
// still execute on the server (there is no wire-level cancel), but its
// response is dropped when it arrives. Callers without a deadline pass
// context.Background() or use the *NoCtx convenience wrappers.
//
// Protocol-level failures surface as the wire package's sentinel errors
// (wire.ErrBusy, wire.ErrShutdown, wire.ErrMalformed, wire.ErrTooLarge)
// wrapped with the server's message, so callers branch with errors.Is.
package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"upskiplist/internal/metrics"
	"upskiplist/internal/wire"
)

// ErrClosed is returned for calls issued after Close, and is the
// completion error of calls in flight when the connection dies without
// a more specific cause.
var ErrClosed = errors.New("client: connection closed")

// Call is one in-flight request. When the response (or a connection
// error) arrives, the call is sent on Done.
type Call struct {
	Req  wire.Request  // as issued
	Resp wire.Response // valid when Err == nil
	Err  error         // transport error; Resp.Err() holds protocol errors
	Done chan *Call

	start int64 // metrics.Now() at issue; 0 when metrics are off
}

// clientMetrics holds the client's registered instruments, published
// through an atomic pointer so the uninstrumented path pays one load.
type clientMetrics struct {
	// rtt is request round-trip latency by op kind, indexed by opcode
	// (upsl_client_rtt_seconds{op=...}).
	rtt [wire.OpSnapRelease + 1]*metrics.Histogram
}

// Client is a pipelined connection to an upsl-server.
type Client struct {
	nc     net.Conn
	outbox chan []byte

	met atomic.Pointer[clientMetrics]

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*Call
	err     error // sticky close/transport cause
	closed  bool

	quit       chan struct{} // closed by fail; stops the writer, unblocks senders
	writerDone chan struct{}
	readerDone chan struct{}
}

// Dial connects to an upsl-server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection. The client owns nc and
// closes it on Close or transport error.
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:         nc,
		outbox:     make(chan []byte, 256),
		pending:    make(map[uint64]*Call),
		quit:       make(chan struct{}),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go c.writeLoop()
	go c.readLoop()
	return c
}

// EnableMetrics registers the client's instruments with reg — request
// round-trip latency by op kind — and starts recording. Round trips
// cover issue to response match, so they include server queueing and
// any pipelining delay ahead of the request.
func (c *Client) EnableMetrics(reg *metrics.Registry) {
	m := &clientMetrics{}
	for _, op := range []wire.Opcode{wire.OpGet, wire.OpPut, wire.OpDel, wire.OpScan, wire.OpBatch, wire.OpSnapScan, wire.OpSnapRelease} {
		m.rtt[op] = reg.Histogram("upsl_client_rtt_seconds",
			"client request round-trip latency by op kind",
			metrics.Labels{"op": op.String()})
	}
	c.met.Store(m)
}

// Go issues req asynchronously. The returned Call is delivered on done
// (buffered, or nil to allocate one of capacity 1) when the response or
// a connection error arrives. req is copied; the caller may reuse it.
func (c *Client) Go(req *wire.Request, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	call := &Call{Req: *req, Done: done}
	if c.met.Load() != nil {
		call.start = metrics.Now()
	}
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		call.Err = err
		call.done()
		return call
	}
	c.nextID++
	call.Req.ID = c.nextID
	payload, err := wire.AppendRequest(make([]byte, 0, 32), &call.Req)
	if err != nil {
		c.mu.Unlock()
		call.Err = err
		call.done()
		return call
	}
	c.pending[call.Req.ID] = call
	c.mu.Unlock()
	select {
	case c.outbox <- payload:
	case <-c.quit:
		// fail owns completion: the call was registered in pending
		// before fail took the map, so fail delivers the error.
	}
	return call
}

// done delivers the completed call. Done channels must have capacity
// for every call issued against them, or completion blocks the
// connection's reader.
func (call *Call) done() { call.Done <- call }

// call issues req and waits for its response, the context's
// cancellation, or its deadline — whichever comes first. A cancelled
// call is abandoned: the caller gets ctx.Err() immediately, and the
// response (the request may well still execute server-side) is dropped
// by the read loop when it arrives.
func (c *Client) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	call := c.Go(req, nil)
	select {
	case cl := <-call.Done:
		if cl.Err != nil {
			return nil, cl.Err
		}
		if err := cl.Resp.Err(); err != nil {
			return nil, err
		}
		return &cl.Resp, nil
	case <-ctx.Done():
		c.abandon(call)
		return nil, ctx.Err()
	}
}

// abandon forgets an in-flight call so its response, if one ever
// arrives, is discarded instead of delivered.
func (c *Client) abandon(call *Call) {
	c.mu.Lock()
	if c.pending != nil {
		delete(c.pending, call.Req.ID)
	}
	c.mu.Unlock()
}

// Get reads key, reporting its value and whether it exists. The
// returned slice is the caller's to keep (a private decode copy).
func (c *Client) Get(ctx context.Context, key uint64) ([]byte, bool, error) {
	r, err := c.call(ctx, &wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return r.Value, r.Found, nil
}

// Put upserts key=val, reporting the previous value and whether the key
// existed. val longer than the server's -max-value (wire.MaxValue at
// most) fails with wire.ErrTooLarge. val is not retained past the call.
func (c *Client) Put(ctx context.Context, key uint64, val []byte) ([]byte, bool, error) {
	r, err := c.call(ctx, &wire.Request{Op: wire.OpPut, Key: key, Val: val})
	if err != nil {
		return nil, false, err
	}
	return r.Value, r.Found, nil
}

// Del removes key, reporting the removed value and whether the key was
// present.
func (c *Client) Del(ctx context.Context, key uint64) ([]byte, bool, error) {
	r, err := c.call(ctx, &wire.Request{Op: wire.OpDel, Key: key})
	if err != nil {
		return nil, false, err
	}
	return r.Value, r.Found, nil
}

// GetU64 is Get for fixed 8-byte little-endian values (the PutU64
// representation). Shorter stored values read back zero-extended.
func (c *Client) GetU64(ctx context.Context, key uint64) (uint64, bool, error) {
	v, found, err := c.Get(ctx, key)
	return leU64(v), found, err
}

// PutU64 upserts key to the 8-byte little-endian encoding of val — the
// compatibility shim for pre-bytes callers and for v1/v2 images whose
// values were raw words.
func (c *Client) PutU64(ctx context.Context, key, val uint64) (uint64, bool, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	old, found, err := c.Put(ctx, key, b[:])
	return leU64(old), found, err
}

// DelU64 is Del decoding the removed value as 8-byte little-endian.
func (c *Client) DelU64(ctx context.Context, key uint64) (uint64, bool, error) {
	v, found, err := c.Del(ctx, key)
	return leU64(v), found, err
}

// leU64 decodes up to 8 little-endian bytes, zero-extending short
// values and ignoring bytes past the eighth.
func leU64(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var p [8]byte
	copy(p[:], b)
	return binary.LittleEndian.Uint64(p[:])
}

// Scan returns up to limit pairs with keys in [lo, hi] (inclusive, like
// the engine's Scan), ascending.
// limit <= 0 requests the server maximum (wire.MaxScanLimit).
func (c *Client) Scan(ctx context.Context, lo, hi uint64, limit int) ([]wire.Pair, error) {
	if limit < 0 || limit > wire.MaxScanLimit {
		limit = wire.MaxScanLimit
	}
	r, err := c.call(ctx, &wire.Request{Op: wire.OpScan, Lo: lo, Hi: hi, Limit: uint32(limit)})
	if err != nil {
		return nil, err
	}
	return append([]wire.Pair(nil), r.Pairs...), nil
}

// Batch applies ops as one server-side group commit and returns per-op
// results in submission order. Duplicate keys follow the engine's
// contract: applied in submission order, last-writer-wins.
func (c *Client) Batch(ctx context.Context, ops []wire.BatchOp) ([]wire.OpResult, error) {
	r, err := c.call(ctx, &wire.Request{Op: wire.OpBatch, Batch: ops})
	if err != nil {
		return nil, err
	}
	return append([]wire.OpResult(nil), r.Results...), nil
}

// Snapshot is a handle to a server-side frozen MVCC snapshot lease.
// Reads through it observe the store exactly as of the moment Snapshot
// returned, regardless of concurrent writes. The lease is kept alive by
// use (every page renews its TTL) and dropped by Release — or by the
// server's TTL if this client disappears.
type Snapshot struct {
	c  *Client
	id uint64
}

// Snapshot opens a server-side snapshot and returns its lease handle.
// The open itself transfers no pairs (it requests an empty range).
func (c *Client) Snapshot(ctx context.Context) (*Snapshot, error) {
	r, err := c.call(ctx, &wire.Request{Op: wire.OpSnapScan, Snap: 0, Lo: 1, Hi: 0, Limit: 1})
	if err != nil {
		return nil, err
	}
	return &Snapshot{c: c, id: r.Snap}, nil
}

// SnapshotNoCtx is Snapshot with context.Background().
func (c *Client) SnapshotNoCtx() (*Snapshot, error) {
	return c.Snapshot(context.Background())
}

// ID is the server-side lease id (for diagnostics).
func (s *Snapshot) ID() uint64 { return s.id }

// Scan returns one page: up to limit frozen pairs with keys in [lo, hi]
// (inclusive), ascending. limit <= 0 requests the server maximum
// (wire.MaxScanLimit). A full page means more pairs may follow; resume
// from the last key + 1.
func (s *Snapshot) Scan(ctx context.Context, lo, hi uint64, limit int) ([]wire.Pair, error) {
	if limit <= 0 || limit > wire.MaxScanLimit {
		limit = wire.MaxScanLimit
	}
	r, err := s.c.call(ctx, &wire.Request{Op: wire.OpSnapScan, Snap: s.id, Lo: lo, Hi: hi, Limit: uint32(limit)})
	if err != nil {
		return nil, err
	}
	return append([]wire.Pair(nil), r.Pairs...), nil
}

// ScanAll streams every frozen pair in [lo, hi] to fn in ascending key
// order, paging with maximum-size requests until the range is exhausted
// or fn returns false. Value slices are private copies fn may keep.
func (s *Snapshot) ScanAll(ctx context.Context, lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	for {
		page, err := s.Scan(ctx, lo, hi, wire.MaxScanLimit)
		if err != nil {
			return err
		}
		for _, p := range page {
			if !fn(p.Key, p.Value) {
				return nil
			}
		}
		if len(page) < wire.MaxScanLimit {
			return nil
		}
		last := page[len(page)-1].Key
		if last >= hi {
			return nil
		}
		lo = last + 1
	}
}

// Release drops the lease, unpinning the snapshot's era server-side. It
// reports whether the lease still existed (false when it had already
// expired or been released). The handle is dead afterwards.
func (s *Snapshot) Release(ctx context.Context) (bool, error) {
	r, err := s.c.call(ctx, &wire.Request{Op: wire.OpSnapRelease, Snap: s.id})
	if err != nil {
		return false, err
	}
	return r.Found, nil
}

// ReleaseNoCtx is Release with context.Background().
func (s *Snapshot) ReleaseNoCtx() (bool, error) {
	return s.Release(context.Background())
}

// The *NoCtx wrappers are the context-free convenience surface for
// callers with no cancellation to propagate (tools, tests): each is
// exactly its namesake with context.Background().

// GetNoCtx is Get with context.Background().
func (c *Client) GetNoCtx(key uint64) ([]byte, bool, error) {
	return c.Get(context.Background(), key)
}

// PutNoCtx is Put with context.Background().
func (c *Client) PutNoCtx(key uint64, val []byte) ([]byte, bool, error) {
	return c.Put(context.Background(), key, val)
}

// GetU64NoCtx is GetU64 with context.Background().
func (c *Client) GetU64NoCtx(key uint64) (uint64, bool, error) {
	return c.GetU64(context.Background(), key)
}

// PutU64NoCtx is PutU64 with context.Background().
func (c *Client) PutU64NoCtx(key, val uint64) (uint64, bool, error) {
	return c.PutU64(context.Background(), key, val)
}

// DelU64NoCtx is DelU64 with context.Background().
func (c *Client) DelU64NoCtx(key uint64) (uint64, bool, error) {
	return c.DelU64(context.Background(), key)
}

// ScanNoCtx is Scan with context.Background().
func (c *Client) ScanNoCtx(lo, hi uint64, limit int) ([]wire.Pair, error) {
	return c.Scan(context.Background(), lo, hi, limit)
}

// BatchNoCtx is Batch with context.Background().
func (c *Client) BatchNoCtx(ops []wire.BatchOp) ([]wire.OpResult, error) {
	return c.Batch(context.Background(), ops)
}

// Close shuts the connection down and fails all in-flight calls with
// ErrClosed. Safe to call more than once.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	<-c.writerDone
	<-c.readerDone
	return nil
}

// fail marks the client closed with cause, closes the socket and
// completes every pending call with the cause.
func (c *Client) fail(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = cause
	calls := c.pending
	c.pending = nil
	close(c.quit)
	c.mu.Unlock()
	c.nc.Close()
	for _, call := range calls {
		call.Err = cause
		call.done()
	}
}

func (c *Client) writeLoop() {
	defer close(c.writerDone)
	bw := newBufWriter(c.nc)
	for {
		select {
		case payload := <-c.outbox:
			err := wire.WriteFrame(bw, payload)
			if err == nil && len(c.outbox) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				c.fail(fmt.Errorf("client: write: %w", err))
				return
			}
		case <-c.quit:
			return
		}
	}
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := newBufReader(c.nc)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			c.fail(fmt.Errorf("client: read: %w", err))
			return
		}
		buf = payload[:0]
		var resp wire.Response
		if err := wire.DecodeResponse(payload, &resp); err != nil {
			c.fail(fmt.Errorf("client: decode: %w", err))
			return
		}
		c.mu.Lock()
		call := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if call == nil {
			// Request ID 0 is a connection-level rejection (busy /
			// shutdown) sent before any request was read.
			if resp.ID == 0 && resp.Status != wire.StatusOK {
				c.fail(resp.Err())
				return
			}
			continue // response to an abandoned call
		}
		if call.start != 0 {
			if m := c.met.Load(); m != nil && resp.Op <= wire.OpSnapRelease && m.rtt[resp.Op] != nil {
				m.rtt[resp.Op].Since(call.start)
			}
		}
		call.Resp = resp
		call.done()
	}
}
