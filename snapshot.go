package upskiplist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"upskiplist/internal/epoch"
	"upskiplist/internal/exec"
	"upskiplist/internal/skiplist"
)

// MVCC snapshots at the store level: Store.Snapshot() pins one frozen
// view per shard (each a consistent cut of that shard — see
// internal/skiplist/mvcc.go for the freeze protocol) and merges them
// behind the familiar Get/Scan/Iterator surface. Snapshots are not a
// mode: every shard's list is born with its era domain and version log,
// whether Create, Reopen or Load built it, so every store can open one.
// Opening and reading a snapshot never blocks writers. While none is
// open a writer pays one atomic load per update; while one is, a
// version-log append per overwritten value, into Go memory — a writer
// never touches a pool on a snapshot's behalf.
//
// Consistency scope: each shard's view is a single consistent cut, but
// the per-shard cuts are acquired in sequence, so a multi-shard batch
// racing Snapshot() may straddle the boundary (some of its keys in the
// frozen view, others not). Single-key operations are always seen
// atomically.

// ErrTooManySnapshots reports more concurrently open snapshots than the
// pin table supports (epoch.NumPins).
var ErrTooManySnapshots = skiplist.ErrTooManySnapshots

// Snap is one open store snapshot: a frozen, point-in-time view served
// without blocking writers. Like a Worker, a Snap is owned by one
// goroutine. Release it promptly — while open it pins the reclamation
// era (retired nodes stop being freed) and grows the version log with
// every overwrite.
type Snap struct {
	s     *Store
	ctxs  []*exec.Ctx
	snaps []*skiplist.ListSnap
	// bit is the snapshot's reader slot in Store.snapBits. Its contexts
	// run as thread NumThreads+bit, an era-domain slot above every
	// worker's, so a reader's per-op pins never share a slot with a live
	// worker (a shared slot would let one side's exit unpin the other).
	bit uint
	// vbuf backs the slices returned by Get — valid until the Snap's
	// next operation, like a Worker's buffer. The snapshot's lifetime
	// era pin keeps every chunk its view references readable even after
	// the live store overwrites (and retires) the value.
	vbuf []byte

	released bool
}

// Snapshot opens a snapshot of the store's current state.
func (s *Store) Snapshot() (*Snap, error) {
	s.snapMu.Lock()
	bit := uint(0)
	for ; bit < epoch.NumPins; bit++ {
		if s.snapBits&(1<<bit) == 0 {
			break
		}
	}
	if bit == epoch.NumPins {
		s.snapMu.Unlock()
		return nil, ErrTooManySnapshots
	}
	s.snapBits |= 1 << bit
	s.snapOpened[bit] = time.Now()
	s.snapMu.Unlock()

	readerID := s.opts.NumThreads + int(bit)
	sn := &Snap{s: s, bit: bit}
	sn.ctxs = make([]*exec.Ctx, len(s.shards))
	sn.snaps = make([]*skiplist.ListSnap, len(s.shards))
	for i, e := range s.shards {
		ctx := exec.NewCtx(readerID, s.topo.NodeOf(readerID))
		ls, err := e.list.AcquireSnapshot(ctx)
		if err != nil {
			for j := 0; j < i; j++ {
				sn.snaps[j].Release(sn.ctxs[j])
			}
			s.snapMu.Lock()
			s.snapBits &^= 1 << bit
			s.snapMu.Unlock()
			return nil, err
		}
		sn.ctxs[i] = ctx
		sn.snaps[i] = ls
	}
	return sn, nil
}

// Release closes the snapshot, unpinning reclamation; the last open
// snapshot also recycles the version log. Idempotent.
func (sn *Snap) Release() {
	s := sn.s
	s.snapMu.Lock()
	if sn.released {
		s.snapMu.Unlock()
		return
	}
	sn.released = true
	s.snapMu.Unlock()
	for i, ls := range sn.snaps {
		ls.Release(sn.ctxs[i])
	}
	sn.publish()
	s.snapMu.Lock()
	s.snapBits &^= 1 << sn.bit
	s.snapMu.Unlock()
}

// Era returns the snapshot's pinned reclamation era on shard 0
// (diagnostics; eras are per-shard).
func (sn *Snap) Era() uint64 { return sn.snaps[0].Era() }

// Get returns key's value in the frozen view. The returned slice
// aliases the Snap's internal buffer and is valid until its next
// operation.
func (sn *Snap) Get(key uint64) ([]byte, bool) {
	if key < KeyMin || key > KeyMax {
		return nil, false
	}
	si := sn.s.shardOf(key)
	ctx := sn.ctxs[si]
	defer ctx.Mem.Publish() // the log digest and the decode run outside the list's own operation
	w, ok := sn.snaps[si].Get(ctx, key)
	if !ok {
		return nil, false
	}
	sn.vbuf = sn.s.shards[si].decodeValue(w, sn.vbuf[:0], ctx.Mem)
	return sn.vbuf, true
}

// GetU64 is Get for fixed-width callers.
func (sn *Snap) GetU64(key uint64) (uint64, bool) {
	v, ok := sn.Get(key)
	if !ok {
		return 0, false
	}
	return leU64(v), true
}

// Scan visits every frozen-view pair in [lo, hi] in globally ascending
// key order until fn returns false. The value slice is only valid for
// that callback invocation.
func (sn *Snap) Scan(lo, hi uint64, fn func(key uint64, val []byte) bool) error {
	if lo < KeyMin {
		lo = KeyMin
	}
	if hi > KeyMax {
		hi = KeyMax
	}
	if lo > hi {
		return nil
	}
	defer sn.publish()
	it := sn.Iterator()
	for ok := it.Seek(lo); ok && it.Key() <= hi; ok = it.Next() {
		if !fn(it.Key(), it.Value()) {
			return nil
		}
	}
	return nil
}

// publish folds every reader context's ledger into its pool's Stats. A
// frozen-view cursor decodes values lazily, outside the list operation
// that positioned it, so a scan publishes once more when it ends.
func (sn *Snap) publish() {
	for _, ctx := range sn.ctxs {
		ctx.Mem.Publish()
	}
}

// ScanU64 is Scan for fixed-width callers.
func (sn *Snap) ScanU64(lo, hi uint64, fn func(key, value uint64) bool) error {
	return sn.Scan(lo, hi, func(k uint64, v []byte) bool {
		return fn(k, leU64(v))
	})
}

// Iterator returns a fresh forward cursor over the frozen view: a merge
// over every shard's snapshot cursor.
func (sn *Snap) Iterator() Iterator {
	cs := make([]skiplist.Cursor, len(sn.snaps))
	for i, ls := range sn.snaps {
		cs[i] = ls.NewIterator(sn.ctxs[i])
	}
	return storeIter{c: skiplist.NewMergedCursors(cs)}
}

// Count returns the number of live keys in the frozen view.
func (sn *Snap) Count() int {
	n := 0
	sn.Scan(KeyMin, KeyMax, func(uint64, []byte) bool { n++; return true })
	return n
}

// snapshotLogEntries sums every shard's version-log length: the
// entries the open snapshots hold in memory, 0 with none open.
func (s *Store) snapshotLogEntries() uint64 {
	var n uint64
	for _, e := range s.shards {
		n += e.list.VersionLogLen()
	}
	return n
}

// SnapshotsOpen returns the number of currently open snapshots.
func (s *Store) SnapshotsOpen() int {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return bits.OnesCount64(s.snapBits)
}

// OldestSnapshotAge returns how long the oldest open snapshot has been
// held (0 when none is open) — the direct driver of reclaim backlog
// and version-log growth.
func (s *Store) OldestSnapshotAge() time.Duration {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	var oldest time.Time
	for bit, t := range s.snapOpened {
		if s.snapBits&(1<<bit) != 0 && (oldest.IsZero() || t.Before(oldest)) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// SaveOnline writes a consistent logical dump of the store into dir
// without stalling writers: the records stream from a snapshot while
// the workload keeps running — no PauseReclaim, no quiesce, in contrast
// to Save's physical pool images. The dump (a v4 "pairs" meta sidecar
// plus a pairs file of length-prefixed values) is read back by the same
// Load that reads Save images.
func (s *Store) SaveOnline(dir string) error {
	sn, err := s.Snapshot()
	if err != nil {
		return err
	}
	defer sn.Release()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "pairs.upsl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var count uint64
	var scratch [12]byte
	binary.LittleEndian.PutUint64(scratch[:8], 0) // count backpatched below
	if _, err := bw.Write(scratch[:8]); err != nil {
		f.Close()
		return err
	}
	serr := sn.Scan(KeyMin, KeyMax, func(k uint64, v []byte) bool {
		binary.LittleEndian.PutUint64(scratch[:8], k)
		binary.LittleEndian.PutUint32(scratch[8:], uint32(len(v)))
		if _, werr := bw.Write(scratch[:]); werr != nil {
			err = werr
			return false
		}
		if _, werr := bw.Write(v); werr != nil {
			err = werr
			return false
		}
		count++
		return true
	})
	if err == nil {
		err = serr
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		binary.LittleEndian.PutUint64(scratch[:8], count)
		_, err = f.WriteAt(scratch[:8], 0)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return writeMeta(dir, s.opts, "pairs")
}

// pairsReader streams the records of a pairs.upsl dump: a count header,
// then per record the key, a 32-bit value length and the value bytes.
// The value slice returned by next is only valid until the following
// call.
type pairsReader struct {
	f     *os.File
	br    *bufio.Reader
	count uint64
	read  uint64
	val   []byte
}

func openPairsReader(dir string) (*pairsReader, error) {
	f, err := os.Open(filepath.Join(dir, "pairs.upsl"))
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("pairs.upsl: truncated header: %w", err)
	}
	return &pairsReader{f: f, br: br, count: binary.LittleEndian.Uint64(hdr[:])}, nil
}

func (r *pairsReader) Close() error { return r.f.Close() }

// next returns the following pair, or ok=false at end of dump.
func (r *pairsReader) next() (key uint64, val []byte, ok bool, err error) {
	if r.read == r.count {
		return 0, nil, false, nil
	}
	var rec [12]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		return 0, nil, false, fmt.Errorf("pairs.upsl: truncated at record %d/%d: %w", r.read, r.count, err)
	}
	vlen := binary.LittleEndian.Uint32(rec[8:])
	if vlen > MaxValueLen {
		return 0, nil, false, fmt.Errorf("pairs.upsl: record %d has an oversize value (%d bytes)", r.read, vlen)
	}
	if cap(r.val) < int(vlen) {
		r.val = make([]byte, vlen)
	}
	r.val = r.val[:vlen]
	if _, err := io.ReadFull(r.br, r.val); err != nil {
		return 0, nil, false, fmt.Errorf("pairs.upsl: truncated in value %d/%d: %w", r.read, r.count, err)
	}
	r.read++
	return binary.LittleEndian.Uint64(rec[:8]), r.val, true, nil
}

// loadPairsDump rebuilds a store from a logical dump: fresh pools, then
// the pairs restored through the bottom-up bulk build. Everything
// SaveOnline writes is sorted; a dump that is not, does not parse, or
// does not fit the pools its sidecar sizes is ErrBadDump, and the
// half-built store is dropped.
func loadPairsDump(dir string, opts Options, cfg LoadConfig) (*Store, error) {
	t0 := time.Now()
	st, err := Create(opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadDump, err)
	}
	st.SetInjector(cfg.Injector)
	rec := RecoveryStats{Attach: time.Since(t0)}
	tLoad := time.Now()
	err = catchCrash(func() error { return bulkLoadPairs(st, dir, &rec) })
	if err != nil {
		if !errors.Is(err, ErrRecoveryInterrupted) {
			err = fmt.Errorf("%w: %w", ErrBadDump, err)
		}
		return nil, err
	}
	rec.BulkLoad = time.Since(tLoad)
	rec.Wall = time.Since(t0)
	st.recovery = rec
	return st, nil
}

// pairBatch carries a run of decoded dump records to one shard's bulk
// worker: keys[j]'s value bytes are arena[ends[j-1]:ends[j]].
type pairBatch struct {
	keys  []uint64
	ends  []int
	arena []byte
}

const bulkBatchPairs = 512

// bulkLoadPairs restores a sorted dump bottom-up. The reader goroutine
// (the caller) streams records, routes each to its shard, and ships
// filled batches over per-shard channels; one worker per shard drains
// its channel into a skiplist.BulkBuilder. The global sort check lives
// in the reader — keyspace sharding is modular, so a globally ascending
// stream yields a strictly ascending subsequence per shard — and any
// violation aborts the whole build with skiplist.ErrUnsorted.
func bulkLoadPairs(st *Store, dir string, rec *RecoveryStats) error {
	r, err := openPairsReader(dir)
	if err != nil {
		return err
	}
	defer r.Close()

	n := len(st.shards)
	workers := make([]*bulkShardWorker, n)
	for i := range workers {
		w, err := newBulkShardWorker(st.shards[i], st.topo.NodeOf(0))
		if err != nil {
			return err
		}
		workers[i] = w
	}
	// The reader keeps going until the dump ends or some worker fails
	// (workers drain their channels on failure so the reader never
	// wedges on a full one).
	chans := make([]chan pairBatch, n)
	pending := make([]pairBatch, n)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		panicked atomic.Pointer[any]
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	for i := range chans {
		chans[i] = make(chan pairBatch, 4)
		wg.Add(1)
		go func(w *bulkShardWorker, ch <-chan pairBatch) {
			defer wg.Done()
			for pb := range ch {
				if failed.Load() {
					continue // drain
				}
				if err := func() (err error) {
					defer crashToErr(&err, "bulk worker", &panicked)
					start := 0
					for j, k := range pb.keys {
						if err := w.add(k, pb.arena[start:pb.ends[j]]); err != nil {
							return err
						}
						start = pb.ends[j]
					}
					return nil
				}(); err != nil {
					fail(err)
				}
			}
		}(workers[i], chans[i])
	}
	readErr := func() error {
		var lastKey uint64
		var haveLast bool
		for !failed.Load() {
			key, val, ok, err := r.next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if haveLast && key <= lastKey {
				return fmt.Errorf("%w: key %#x after %#x", skiplist.ErrUnsorted, key, lastKey)
			}
			lastKey, haveLast = key, true
			si := st.shardOf(key)
			pb := &pending[si]
			pb.keys = append(pb.keys, key)
			pb.arena = append(pb.arena, val...)
			pb.ends = append(pb.ends, len(pb.arena))
			if len(pb.keys) >= bulkBatchPairs {
				chans[si] <- *pb
				pending[si] = pairBatch{}
			}
		}
		return nil
	}()
	for si := range chans {
		if readErr == nil && !failed.Load() && len(pending[si].keys) > 0 {
			chans[si] <- pending[si]
		}
		close(chans[si])
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	if readErr != nil {
		return readErr
	}
	if firstErr != nil {
		return firstErr
	}
	for _, w := range workers {
		if err := w.finish(); err != nil {
			return err
		}
		rec.KeysBulkLoaded += w.b.Keys()
		rec.NodesBulkBuilt += w.b.Nodes()
	}
	return nil
}

// bulkShardWorker owns one shard's bulk build: a private exec context
// whose line batch folds each value's slab lines into the node fence,
// and the builder appending at the shard list's right edge.
type bulkShardWorker struct {
	e   *engine
	ctx *exec.Ctx
	b   *skiplist.BulkBuilder
}

func newBulkShardWorker(e *engine, node int) (*bulkShardWorker, error) {
	ctx := exec.NewCtx(0, node)
	b, err := skiplist.NewBulkBuilder(e.list, ctx)
	if err != nil {
		return nil, err
	}
	e.list.Pin(ctx)
	return &bulkShardWorker{e: e, ctx: ctx, b: b}, nil
}

func (w *bulkShardWorker) add(key uint64, val []byte) error {
	word, err := w.e.encodeValue(w.ctx, val, &w.ctx.Batch)
	if err != nil {
		return err
	}
	return w.b.Add(key, word)
}

func (w *bulkShardWorker) finish() error {
	defer w.e.list.Unpin(w.ctx)
	return w.b.Finish()
}
