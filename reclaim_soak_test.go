package upskiplist

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"upskiplist/internal/exec"
)

// TestShardedReclaimSoak drives a store with online reclaim on under
// concurrent writers, readers and scanners — the configuration the CI
// race job exercises — keyspace-sharded four ways and, since
// Worker.Scan reads one shard through the same cursor, unsharded. Each writer
// owns a disjoint key stripe (sole-writer, so its own reads check
// against an exact expectation even while other goroutines retire
// nodes); removals sweep whole stripe segments, so the writers retire
// fully-tombstoned nodes mid-traffic. The scanner checks every merged
// scan is strictly increasing with the writers' value tagging intact —
// a recycled block surfacing mid-scan would break monotonicity or yield
// a foreign value. Once the writers are done, a scan must yield exactly
// the keys the writers kept, and the same stream as the public cursor.
func TestShardedReclaimSoak(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { soakReclaim(t, shards) })
	}
}

func soakReclaim(t *testing.T, shards int) {
	const (
		workers = 4
		stripe  = uint64(1 << 20) // key stripe per worker
		segment = uint64(64)      // keys inserted then mostly removed per round
		rounds  = 300
	)
	o := testOptions()
	o.Shards = shards
	o.OnlineReclaim = true
	st, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.DisableOnlineReclaim()

	// The first failed read-back is kept — who, when, what came back —
	// and stops every writer. It is reported after the store is quiet,
	// with what the structure then holds for the key; the final set
	// comparison is skipped, since stopped writers leave segments behind.
	var failed atomic.Bool
	var lost struct {
		worker, round int
		seg, key, got uint64
		ok            bool
	}
	var writers sync.WaitGroup
	errs := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		writers.Add(1)
		go func(wi int) {
			defer writers.Done()
			w := st.NewWorker(1 + wi)
			rng := rand.New(rand.NewSource(int64(wi) * 977))
			base := uint64(wi)*stripe + 1
			for r := 0; r < rounds && !failed.Load(); r++ {
				// Insert a segment, spot-check it, remove most of it: the
				// removed prefix fully tombstones nodes, which are retired.
				seg := base + uint64(r%64)*segment*2
				for k := seg; k < seg+segment; k++ {
					if _, _, err := w.PutU64(k, k^0xabcd); err != nil {
						errs <- err
						return
					}
				}
				for i := 0; i < 8; i++ {
					k := seg + uint64(rng.Int63n(int64(segment)))
					if v, ok := w.GetU64(k); !ok || v != k^0xabcd {
						if failed.CompareAndSwap(false, true) {
							lost.worker, lost.round, lost.seg, lost.key, lost.got, lost.ok = wi, r, seg, k, v, ok
						}
						return
					}
				}
				keep := segment / 8
				for k := seg; k < seg+segment-keep; k++ {
					if _, _, err := w.RemoveU64(k); err != nil {
						errs <- err
						return
					}
				}
			}
		}(wi)
	}

	// Merged scanner: strictly increasing keys and intact value tagging,
	// concurrent with the writers and their retires.
	var scanner sync.WaitGroup
	stop := make(chan struct{})
	scanner.Add(1)
	go func() {
		defer scanner.Done()
		w := st.NewWorker(workers + 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			prev := uint64(0)
			w.ScanU64(KeyMin, KeyMax, func(k, v uint64) bool {
				if k <= prev {
					t.Errorf("merged scan out of order: %d after %d", k, prev)
					return false
				}
				if v != k^0xabcd {
					t.Errorf("scan: key %d has foreign value %d", k, v)
					return false
				}
				prev = k
				return true
			})
		}
	}()

	writers.Wait()
	close(stop)
	scanner.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if failed.Load() {
		st.PauseReclaim()
		defer st.ResumeReclaim()
		t.Fatalf("shards=%d worker %d round %d segment %d: Get(%d) = (%d,%v), want (%d,true) from the key's only writer; afterwards: %s",
			shards, lost.worker, lost.round, lost.seg, lost.key, lost.got, lost.ok, lost.key^0xabcd,
			st.ShardList(st.ShardOf(lost.key)).DescribeKey(exec.NewCtx(0, 0), lost.key))
	}

	// Each writer kept the last segment/8 keys of every segment it
	// wrote: no key dropped, none invented, cursor and scan agree.
	var want []uint64
	for wi := uint64(0); wi < workers; wi++ {
		for r := uint64(0); r < min(rounds, 64); r++ {
			seg := wi*stripe + 1 + r*segment*2
			for k := seg + segment - segment/8; k < seg+segment; k++ {
				want = append(want, k)
			}
		}
	}
	sw := st.NewWorker(workers + 1)
	var scanned, iterated []uint64
	sw.ScanU64(KeyMin, KeyMax, func(k, _ uint64) bool { scanned = append(scanned, k); return true })
	it := sw.Iterator()
	for ok := it.Seek(KeyMin); ok; ok = it.Next() {
		iterated = append(iterated, it.Key())
	}
	if !slices.Equal(scanned, want) {
		t.Errorf("scan yields %d keys, the writers kept %d", len(scanned), len(want))
	}
	if !slices.Equal(scanned, iterated) {
		t.Errorf("scan yields %d keys, the cursor %d", len(scanned), len(iterated))
	}

	// Quiesced epilogue: retirement must have actually worked, and the
	// structure must be intact across every shard.
	if st.ReclaimStats().Retired == 0 {
		t.Error("no nodes retired during soak")
	}
	// CheckInvariants is a quiesced walk; hold retirement for it.
	st.PauseReclaim()
	defer st.ResumeReclaim()
	w := st.NewWorker(0)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
