package server

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upskiplist"
	"upskiplist/internal/client"
	"upskiplist/internal/wire"
)

// TestServerCrashRestart is the end-to-end durability check for the
// service layer: pipelined clients drive writes, the server is killed
// mid-load (socket cut, queued requests dropped), the store loses every
// unflushed cache line (power failure), and a new server opens over the
// recovered store. The contract under test:
//
//   - acknowledged ⇒ durable: every write whose response a client
//     received is present with its exact value after the crash;
//   - unacknowledged writes may or may not be present (the crash can
//     fall between apply and response) but a present one carries the
//     exact submitted value;
//   - a client BATCH is all-or-nothing: group commit plus kill-time
//     quiescence mean no batch is ever partially visible;
//   - keys never submitted are absent.
func TestServerCrashRestart(t *testing.T) {
	const conns = 4
	const depth = 32
	const keysPerConn = 4000
	const batchEvery = 16 // every 16th request is a 4-op BATCH
	const batchOps = 4

	opts := testOptions(4)
	opts.PoolWords = 1 << 21
	opts.MaxChunks = 1024
	st, err := upskiplist.Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	st.EnableCrashTracking()

	s, err := New(Config{Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	addr := ln.Addr().String()

	val := func(key uint64) uint64 { return key*13 + 5 }

	// Per-connection issue/ack tracking. Keys are partitioned by
	// connection so no key is written twice.
	type connLog struct {
		issuedSingles []uint64   // keys of issued PUTs
		ackedSingles  []uint64   // keys of acknowledged PUTs
		issuedBatches [][]uint64 // key groups of issued BATCHes
		ackedBatches  [][]uint64
	}
	logs := make([]connLog, conns)

	var acks atomic.Uint64
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			lg := &logs[ci]
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("conn %d: %v", ci, err)
				return
			}
			defer c.Close()
			base := uint64(1 + ci*keysPerConn)
			next := base
			end := base + keysPerConn
			type tagged struct {
				keys []uint64 // nil for singles
				key  uint64
			}
			tags := make(map[*client.Call]tagged, depth)
			ch := make(chan *client.Call, depth)
			issue := func() bool {
				if next >= end {
					return false
				}
				seq := next - base
				if seq%batchEvery == 0 && next+batchOps <= end {
					ops := make([]wire.BatchOp, batchOps)
					keys := make([]uint64, batchOps)
					for i := range ops {
						k := next + uint64(i)
						ops[i] = wire.BatchOp{Kind: wire.OpPut, Key: k, Value: leBytes(val(k))}
						keys[i] = k
					}
					next += batchOps
					call := c.Go(&wire.Request{Op: wire.OpBatch, Batch: ops}, ch)
					tags[call] = tagged{keys: keys}
					lg.issuedBatches = append(lg.issuedBatches, keys)
				} else {
					k := next
					next++
					call := c.Go(&wire.Request{Op: wire.OpPut, Key: k, Val: leBytes(val(k))}, ch)
					tags[call] = tagged{key: k}
					lg.issuedSingles = append(lg.issuedSingles, k)
				}
				return true
			}
			inflight := 0
			for inflight < depth && issue() {
				inflight++
			}
			for inflight > 0 {
				call := <-ch
				inflight--
				tag := tags[call]
				delete(tags, call)
				if call.Err == nil && call.Resp.Err() == nil {
					acks.Add(1)
					if tag.keys != nil {
						lg.ackedBatches = append(lg.ackedBatches, tag.keys)
					} else {
						lg.ackedSingles = append(lg.ackedSingles, tag.key)
					}
				}
				if call.Err != nil {
					continue // transport dead: stop issuing, drain
				}
				if issue() {
					inflight++
				}
			}
		}(ci)
	}

	// Kill mid-load: once a healthy chunk of writes is acknowledged but
	// well before the streams drain.
	for acks.Load() < conns*keysPerConn/4 {
		time.Sleep(200 * time.Microsecond)
	}
	s.Kill()
	wg.Wait()

	// Power failure + recovery. Kill returned ⇒ the store is quiesced.
	reverted := st.SimulateCrash()
	st2, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killed after %d acks; crash reverted %d lines", acks.Load(), reverted)

	w := st2.NewWorker(0)
	ackedS, ackedB := 0, 0
	for ci := range logs {
		lg := &logs[ci]
		for _, k := range lg.ackedSingles {
			ackedS++
			v, found := w.GetU64(k)
			if !found || v != val(k) {
				t.Fatalf("acked PUT %d lost or corrupt after crash: (%d, %v), want (%d, true)", k, v, found, val(k))
			}
		}
		for _, keys := range lg.ackedBatches {
			ackedB++
			for _, k := range keys {
				v, found := w.GetU64(k)
				if !found || v != val(k) {
					t.Fatalf("key %d of acked BATCH lost or corrupt after crash: (%d, %v)", k, v, found)
				}
			}
		}
		// Unacked writes may or may not be present, but present ones
		// carry the exact value, and batches are all-or-nothing.
		for _, k := range lg.issuedSingles {
			if v, found := w.GetU64(k); found && v != val(k) {
				t.Fatalf("unacked PUT %d present with wrong value %d, want %d", k, v, val(k))
			}
		}
		for _, keys := range lg.issuedBatches {
			present := 0
			for _, k := range keys {
				if v, found := w.GetU64(k); found {
					present++
					if v != val(k) {
						t.Fatalf("key %d of BATCH present with wrong value %d", k, v)
					}
				}
			}
			if present != 0 && present != len(keys) {
				t.Fatalf("BATCH %v partially visible after crash: %d/%d keys present", keys, present, len(keys))
			}
		}
		// Keys beyond what this connection issued must be absent.
		base := uint64(1 + ci*keysPerConn)
		issued := uint64(len(lg.issuedSingles))
		for _, b := range lg.issuedBatches {
			issued += uint64(len(b))
		}
		for k := base + issued; k < base+keysPerConn; k++ {
			if _, found := w.GetU64(k); found {
				t.Fatalf("key %d was never submitted but is present after crash", k)
			}
		}
	}
	if ackedS == 0 || ackedB == 0 {
		t.Fatalf("degenerate run: %d acked singles, %d acked batches — kill fired too early", ackedS, ackedB)
	}

	// The recovered store serves a fresh server.
	s2, err := New(Config{Store: st2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s2.Serve(ln2)
	defer s2.Shutdown()
	c := dialT(t, ln2.Addr().String())
	k0 := logs[0].ackedSingles[0]
	if v, found, err := c.GetU64NoCtx(k0); err != nil || !found || v != val(k0) {
		t.Fatalf("restarted server Get(%d) = (%d, %v, %v), want (%d, true, nil)", k0, v, found, err, val(k0))
	}
	if _, _, err := c.PutU64NoCtx(k0, 1); err != nil {
		t.Fatalf("restarted server rejects writes: %v", err)
	}
}

// leBytes is the 8-byte little-endian value encoding PutU64 sends.
func leBytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// leU64 decodes a leBytes value, zero-extending short reads.
func leU64(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var p [8]byte
	copy(p[:], b)
	return binary.LittleEndian.Uint64(p[:])
}
