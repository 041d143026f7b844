package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upskiplist"
	"upskiplist/internal/client"
	"upskiplist/internal/wire"
)

// testOptions is a small sharded store configuration for loopback tests.
func testOptions(shards int) upskiplist.Options {
	o := upskiplist.DefaultOptions()
	o.Shards = shards
	o.PoolWords = 1 << 19
	o.ChunkWords = 1 << 12
	o.MaxChunks = 256
	return o
}

// newTestServer starts a server over a fresh store on a loopback
// listener and registers cleanup. Tests that shut the server down
// themselves (crash tests) set ownStop.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Store == nil {
		st, err := upskiplist.Create(testOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	t.Cleanup(func() {
		if s.state.Load() == stateRunning {
			s.Shutdown()
		}
	})
	return s, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerBasicOps(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialT(t, addr)

	if _, found, err := c.GetU64NoCtx(1); err != nil || found {
		t.Fatalf("Get(1) on empty store = (%v, %v), want (false, nil)", found, err)
	}
	if old, existed, err := c.PutU64NoCtx(1, 100); err != nil || existed || old != 0 {
		t.Fatalf("Put(1,100) = (%d, %v, %v), want (0, false, nil)", old, existed, err)
	}
	if old, existed, err := c.PutU64NoCtx(1, 101); err != nil || !existed || old != 100 {
		t.Fatalf("Put(1,101) = (%d, %v, %v), want (100, true, nil)", old, existed, err)
	}
	if v, found, err := c.GetU64NoCtx(1); err != nil || !found || v != 101 {
		t.Fatalf("Get(1) = (%d, %v, %v), want (101, true, nil)", v, found, err)
	}
	if v, found, err := c.DelU64NoCtx(1); err != nil || !found || v != 101 {
		t.Fatalf("Del(1) = (%d, %v, %v), want (101, true, nil)", v, found, err)
	}
	if _, found, err := c.GetU64NoCtx(1); err != nil || found {
		t.Fatalf("Get(1) after Del = found=%v err=%v, want (false, nil)", found, err)
	}
	if _, found, err := c.DelU64NoCtx(1); err != nil || found {
		t.Fatalf("Del(1) of absent key = found=%v err=%v, want (false, nil)", found, err)
	}
}

func TestServerScan(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialT(t, addr)

	for k := uint64(10); k < 30; k++ {
		if _, _, err := c.PutU64NoCtx(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := c.ScanNoCtx(15, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("Scan[15,24] returned %d pairs, want 10", len(pairs))
	}
	for i, p := range pairs {
		want := uint64(15 + i)
		if v := leU64(p.Value); p.Key != want || v != want*2 {
			t.Fatalf("pair %d = (%d,%d), want (%d,%d)", i, p.Key, v, want, want*2)
		}
	}
	// Limit truncates.
	pairs, err = c.ScanNoCtx(10, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 || pairs[0].Key != 10 || pairs[4].Key != 14 {
		t.Fatalf("Scan limit 5 returned %d pairs starting %d", len(pairs), pairs[0].Key)
	}
}

func TestServerBatch(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialT(t, addr)

	// Duplicate keys in one batch follow the engine's contract:
	// submission order, last-writer-wins.
	res, err := c.BatchNoCtx([]wire.BatchOp{
		{Kind: wire.OpPut, Key: 7, Value: leBytes(1)},
		{Kind: wire.OpGet, Key: 7},
		{Kind: wire.OpPut, Key: 7, Value: leBytes(2)},
		{Kind: wire.OpDel, Key: 7},
		{Kind: wire.OpPut, Key: 7, Value: leBytes(3)},
		{Kind: wire.OpPut, Key: 9, Value: leBytes(90)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		found bool
		val   uint64
	}{
		{false, 0}, // insert
		{true, 1},  // get sees first put
		{true, 1},  // update sees old value
		{true, 2},  // delete removes updated value
		{false, 0}, // reinsert after delete
		{false, 0},
	}
	if len(res) != len(want) {
		t.Fatalf("batch returned %d results, want %d", len(res), len(want))
	}
	for i := range want {
		if res[i].Found != want[i].found || leU64(res[i].Value) != want[i].val {
			t.Fatalf("batch result %d = %+v, want %+v", i, res[i], want[i])
		}
	}
	if v, found, err := c.GetU64NoCtx(7); err != nil || !found || v != 3 {
		t.Fatalf("Get(7) after batch = (%d, %v, %v), want (3, true, nil)", v, found, err)
	}
}

// TestServerValueTooLarge: a PUT (lone or batched) past the server's
// MaxValue bound gets StatusTooLarge back on a healthy connection —
// rejected before touching the engine, not a dropped conn.
func TestServerValueTooLarge(t *testing.T) {
	_, addr := newTestServer(t, Config{MaxValue: 64})
	c := dialT(t, addr)

	fat := make([]byte, 65)
	if _, _, err := c.PutNoCtx(1, fat); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize Put err = %v, want wire.ErrTooLarge", err)
	}
	res, err := c.BatchNoCtx([]wire.BatchOp{{Kind: wire.OpPut, Key: 2, Value: fat}})
	if !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize batched Put = (%v, %v), want wire.ErrTooLarge", res, err)
	}
	// The connection survives and the bound is exact.
	if _, _, err := c.PutNoCtx(3, make([]byte, 64)); err != nil {
		t.Fatalf("at-bound Put after rejection: %v", err)
	}
	if v, found, err := c.GetNoCtx(3); err != nil || !found || len(v) != 64 {
		t.Fatalf("Get(3) = (%d bytes, %v, %v), want 64 bytes", len(v), found, err)
	}
	if _, found, err := c.GetNoCtx(1); err != nil || found {
		t.Fatalf("rejected value landed: Get(1) found=%v err=%v", found, err)
	}
}

// TestServerScanResponseTooLarge: a SCAN whose pairs would not fit one
// frame gets StatusTooLarge back on a healthy connection, not a frame
// the client must reject.
func TestServerScanResponseTooLarge(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialT(t, addr)
	big := make([]byte, wire.MaxFrame/2+1)
	for k := uint64(1); k <= 2; k++ {
		if _, _, err := c.PutNoCtx(k, big); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Scan(ctx, 1, 2, 0); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize scan err = %v, want wire.ErrTooLarge", err)
	}
	if pairs, err := c.ScanNoCtx(1, 1, 0); err != nil || len(pairs) != 1 || len(pairs[0].Value) != len(big) {
		t.Fatalf("one-pair scan after rejection = %d pairs, %v", len(pairs), err)
	}
}

func TestServerPipelinedConcurrentClients(t *testing.T) {
	const conns = 4
	const perConn = 500
	s, addr := newTestServer(t, Config{})

	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			// Issue a window of puts without waiting, then collect.
			done := make(chan *client.Call, perConn)
			for i := 0; i < perConn; i++ {
				key := uint64(1 + ci*perConn + i)
				c.Go(&wire.Request{Op: wire.OpPut, Key: key, Val: leBytes(key * 10)}, done)
			}
			for i := 0; i < perConn; i++ {
				call := <-done
				if call.Err != nil {
					t.Errorf("conn %d: %v", ci, call.Err)
					return
				}
				if err := call.Resp.Err(); err != nil {
					t.Errorf("conn %d: %v", ci, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()

	c := dialT(t, addr)
	for k := uint64(1); k <= conns*perConn; k++ {
		v, found, err := c.GetU64NoCtx(k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != k*10 {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, found, k*10)
		}
	}
	snap := s.Snapshot()
	if snap.Drains == 0 || snap.DrainedOps < conns*perConn {
		t.Fatalf("connections report %d drains / %d ops, want > 0 / >= %d",
			snap.Drains, snap.DrainedOps, conns*perConn)
	}
	t.Logf("snapshot: drains=%d avg_drain=%.1f fences/op=%.3f hint_hit=%.2f",
		snap.Drains, snap.AvgDrain(), snap.FencesPerOp(), snap.HintHitRate())
}

func TestServerConnLimit(t *testing.T) {
	_, addr := newTestServer(t, Config{MaxConns: 1})
	c1 := dialT(t, addr)
	if _, _, err := c1.PutU64NoCtx(1, 1); err != nil {
		t.Fatal(err)
	}
	// Second connection must be rejected with BUSY. The rejection races
	// with nothing: the first conn holds the only slot.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, _, err = c2.GetU64NoCtx(1)
	if err == nil {
		t.Fatal("second connection served beyond MaxConns=1")
	}
	t.Logf("rejected as expected: %v", err)

	// Slot frees after the first client leaves.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if v, found, err := c3.GetU64NoCtx(1); err == nil {
			if !found || v != 1 {
				t.Fatalf("Get(1) = (%d, %v), want (1, true)", v, found)
			}
			c3.Close()
			return
		}
		c3.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after first client closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerMalformedFrame(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// An unknown opcode with a valid header decodes far enough to echo
	// the ID back with StatusMalformed, then the server hangs up.
	payload := []byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 42}
	if err := wire.WriteFrame(nc, payload); err != nil {
		t.Fatal(err)
	}
	respPayload, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(respPayload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusMalformed || resp.ID != 42 {
		t.Fatalf("response = status %v id %d, want MALFORMED id 42", resp.Status, resp.ID)
	}
	// Connection closes after the error response.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(nc, nil); err == nil {
		t.Fatal("connection stayed open after malformed frame")
	}
}

func TestServerGracefulShutdownSaves(t *testing.T) {
	dir := t.TempDir()
	s, addr := newTestServer(t, Config{Dir: dir})
	c := dialT(t, addr)
	const n = 200
	for k := uint64(1); k <= n; k++ {
		if _, _, err := c.PutU64NoCtx(k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err == nil {
		t.Fatal("second Shutdown did not report not-running")
	}

	st, err := upskiplist.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	for k := uint64(1); k <= n; k++ {
		v, found := w.GetU64(k)
		if !found || v != k+1000 {
			t.Fatalf("after Load: Get(%d) = (%d, %v), want (%d, true)", k, v, found, k+1000)
		}
	}
}

func TestServerShutdownAnswersInFlight(t *testing.T) {
	s, addr := newTestServer(t, Config{})
	c := dialT(t, addr)
	// Fill the pipeline, then shut down concurrently: every issued
	// request must still be answered (acknowledged implies applied).
	const n = 300
	done := make(chan *client.Call, n)
	for i := 0; i < n; i++ {
		c.Go(&wire.Request{Op: wire.OpPut, Key: uint64(1 + i), Val: leBytes(uint64(i))}, done)
	}
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown() }()
	acked := 0
	for i := 0; i < n; i++ {
		call := <-done
		if call.Err == nil && call.Resp.Err() == nil {
			acked++
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatal(err)
	}
	// The reader may have been cut before decoding some frames, but
	// everything dispatched was answered; verify acked writes applied.
	t.Logf("%d/%d acked across shutdown", acked, n)
	w := s.Store().NewWorker(0)
	found := 0
	for i := 0; i < n; i++ {
		if _, ok := w.GetU64(uint64(1 + i)); ok {
			found++
		}
	}
	if found < acked {
		t.Fatalf("only %d keys present but %d were acknowledged", found, acked)
	}
}

// TestServerKillWhileDialing kills servers while clients dial them in a
// tight loop. A connection accepted just as the teardown closes the
// registered ones used to be registered after that pass, never closed,
// and Kill waited for its reader forever.
func TestServerKillWhileDialing(t *testing.T) {
	st, err := upskiplist.Create(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		s, addr := newTestServer(t, Config{Store: st, Logf: func(string, ...any) {}})
		stop := make(chan struct{})
		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				var held []net.Conn
				defer func() {
					for _, nc := range held {
						nc.Close()
					}
				}()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Keep the connections open: one the server never closes
					// is what would hang it.
					if nc, err := net.Dial("tcp", addr); err == nil {
						held = append(held, nc)
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		killed := make(chan struct{})
		go func() {
			s.Kill()
			close(killed)
		}()
		select {
		case <-killed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Kill did not return with clients still dialing", round)
		}
		close(stop)
		dialers.Wait()
	}
}

// TestServerRunsToCompletion pins the server's goroutine shape: New
// starts nothing per shard, a served connection costs exactly one
// goroutine, a pipelined burst of singles comes back in request order
// through the connection's drains, and after Kill mid-load and after
// Shutdown the goroutine count returns to its value before New.
func TestServerRunsToCompletion(t *testing.T) {
	st, err := upskiplist.Create(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines()
	s, err := New(Config{Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base+1, "after New over 4 shards (the lease janitor only)")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	addr := ln.Addr().String()
	waitGoroutines(t, base+2, "after Serve (the accept loop)")

	// Raw sockets, so the client side adds no goroutine of its own.
	var ncs []net.Conn
	for i := 1; i <= 3; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		ncs = append(ncs, nc)
		// One round trip: the connection is served, not just accepted.
		frames := appendRequestFrame(t, nil, &wire.Request{Op: wire.OpGet, ID: 1, Key: 1})
		if _, err := nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		readResponse(t, nc)
		waitGoroutines(t, base+2+i, fmt.Sprintf("after dial %d", i))
	}

	const burst = 32
	before := s.Snapshot().DrainedOps
	var frames []byte
	for i := 0; i < burst; i++ {
		frames = appendRequestFrame(t, frames, &wire.Request{
			Op: wire.OpPut, ID: uint64(100 + i), Key: uint64(1 + i), Val: leBytes(uint64(i)),
		})
	}
	if _, err := ncs[0].Write(frames); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		resp := readResponse(t, ncs[0])
		if resp.ID != uint64(100+i) || resp.Op != wire.OpPut || resp.Err() != nil {
			t.Fatalf("burst response %d = id %d op %v err %v, want id %d PUT ok", i, resp.ID, resp.Op, resp.Err(), 100+i)
		}
	}
	if got := s.Snapshot().DrainedOps - before; got != burst {
		t.Fatalf("drains carried %d ops of the burst, want %d", got, burst)
	}

	for i, nc := range ncs {
		nc.Close()
		waitGoroutines(t, base+2+len(ncs)-1-i, fmt.Sprintf("after close %d", i+1))
	}

	var acks atomic.Uint64
	loaders := startLoad(t, addr, 2, &acks)
	for acks.Load() < 500 {
		time.Sleep(100 * time.Microsecond)
	}
	s.Kill()
	loaders.Wait()
	waitGoroutines(t, base, "after Kill mid-load")

	s2, addr := newTestServer(t, Config{Store: st})
	loaders = startLoad(t, addr, 2, &acks)
	for acks.Load() < 1000 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	loaders.Wait()
	waitGoroutines(t, base, "after Shutdown under load")
}

// startLoad runs conns clients that keep 16 PUTs in flight each until
// their connection is cut, counting acknowledgments.
func startLoad(t *testing.T, addr string, conns int, acks *atomic.Uint64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			done := make(chan *client.Call, 16)
			for k := uint64(1); k <= 16; k++ {
				c.Go(&wire.Request{Op: wire.OpPut, Key: k, Val: leBytes(k)}, done)
			}
			for k := uint64(17); ; k++ {
				call := <-done
				if call.Err != nil {
					return // the server went away
				}
				if err := call.Resp.Err(); err != nil {
					t.Error(err)
					return
				}
				acks.Add(1)
				c.Go(&wire.Request{Op: wire.OpPut, Key: k%4096 + 1, Val: leBytes(k)}, done)
			}
		}()
	}
	return &wg
}

func appendRequestFrame(t *testing.T, dst []byte, q *wire.Request) []byte {
	t.Helper()
	payload, err := wire.AppendRequest(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendFrame(dst, payload)
}

func readResponse(t *testing.T, nc net.Conn) *wire.Response {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// settledGoroutines returns the goroutine count once goroutines left
// by earlier tests have finished exiting.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// waitGoroutines waits for the goroutine count to reach want; exits are
// asynchronous, so it polls.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			var sb strings.Builder
			pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("%s: %d goroutines, want %d\n%s", when, runtime.NumGoroutine(), want, sb.String())
		}
		time.Sleep(time.Millisecond)
	}
}
