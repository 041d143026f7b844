package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	upskiplist "upskiplist"
	"upskiplist/internal/harness"
	"upskiplist/internal/hist"
	"upskiplist/internal/ycsb"
)

// The snap experiment: what do open MVCC snapshots cost the writers?
//
// For each snapshot count in {0, 1, 4} a fresh store (snapshots enabled
// in every configuration, so the sweep isolates the cost of *open*
// snapshots rather than the subsystem being compiled in) is preloaded,
// the requested number of snapshots is pinned, and YCSB A (50% reads /
// 50% updates, the workload whose updates all shadow a prior value into
// the version log) runs on snapWorkers workers. While the writers run,
// a scanner goroutine repeatedly executes a full Snap.Scan on the first
// snapshot and checks the result is bit-identical to the quiesced
// pre-snapshot reference dump — the frozen-view equivalence check — and
// times every scan into a histogram.
//
// Two record families land in BENCH_snap.json:
//
//	snap-writers  one record per snapshot count: writer throughput +
//	              per-op latency percentiles
//	snap-scan     one record per open-snapshot count > 0: full-scan
//	              throughput and latency while the writers churn
//
// The paper's recoverable skip list stops the world to dump a
// consistent image; the acceptance bar here is the opposite: one open
// snapshot must keep writers at >= 0.85x the no-snapshot baseline.

const snapWorkers = 8

type snapPair struct{ k, v uint64 }

// snapScanOnce dumps the snapshot and compares against the reference.
// Returns the index of the first divergence, or -1 if identical.
func snapScanOnce(sn *upskiplist.Snap, ref []snapPair) (int, error) {
	i := 0
	diverged := -1
	err := sn.Scan(upskiplist.KeyMin, upskiplist.KeyMax, func(k uint64, v []byte) bool {
		if i >= len(ref) || ref[i] != (snapPair{k, leU64(v)}) {
			diverged = i
			return false
		}
		i++
		return true
	})
	if err != nil {
		return 0, err
	}
	if diverged >= 0 {
		return diverged, nil
	}
	if i != len(ref) {
		return i, nil
	}
	return -1, nil
}

func runSnapExp(c benchConfig) {
	header("Extension — MVCC snapshots: writer throughput vs open snapshots + frozen-scan latency")
	fmt.Printf("(YCSB A, %d workers, preload=%d; scans equivalence-checked against the pre-snapshot dump)\n",
		snapWorkers, c.preload)
	var records []harness.BenchRecord
	byCount := map[int]float64{}

	for _, nsnap := range []int{0, 1, 4} {
		label := fmt.Sprintf("UPSL-%dsnap", nsnap)
		u, err := harness.NewUPSL(c.upslOptions(c.keysNode, upskiplist.Striped), label)
		if err != nil {
			fatalf("creating %s: %v", label, err)
		}
		var idx harness.Index = u
		if err := harness.Preload(idx, c.preload, 4); err != nil {
			fatalf("preload %s: %v", label, err)
		}
		st := u.Store()

		// Quiesced reference state — what every frozen scan must return.
		ref := make([]snapPair, 0, c.preload)
		w := st.NewWorker(0)
		w.Scan(upskiplist.KeyMin, upskiplist.KeyMax, func(k uint64, v []byte) bool {
			ref = append(ref, snapPair{k, leU64(v)})
			return true
		})

		snaps := make([]*upskiplist.Snap, 0, nsnap)
		for i := 0; i < nsnap; i++ {
			sn, err := st.Snapshot()
			if err != nil {
				fatalf("%s: opening snapshot %d: %v", label, i, err)
			}
			snaps = append(snaps, sn)
		}

		// Scanner: full frozen scans against snapshot 0 for the whole
		// measured run, each timed and equivalence-checked.
		var (
			stop     atomic.Bool
			scanWG   sync.WaitGroup
			scanHist hist.Histogram
			scans    int
			scanErr  error
		)
		if nsnap > 0 {
			scanWG.Add(1)
			go func() {
				defer scanWG.Done()
				for !stop.Load() {
					start := time.Now()
					bad, err := snapScanOnce(snaps[0], ref)
					if err != nil {
						scanErr = fmt.Errorf("snapshot scan: %w", err)
						return
					}
					if bad >= 0 {
						scanErr = fmt.Errorf("frozen view diverged from reference at pair %d (scan %d)", bad, scans)
						return
					}
					dur := time.Since(start)
					scanHist.RecordSince(start)
					scans++
					// Pace the scans to a ~10% duty cycle: back-to-back full
					// dumps would turn the scanner into a CPU antagonist and
					// measure core contention instead of the snapshot
					// subsystem (on a 1-core host a spinning scanner starves
					// the eight writers outright).
					pause := 9 * dur
					if pause < 2*time.Millisecond {
						pause = 2 * time.Millisecond
					}
					time.Sleep(pause)
				}
			}()
		}

		run := ycsb.NewRun(ycsb.WorkloadA, c.preload)
		res, err := harness.RunMeasured(idx, run, snapWorkers, c.ops, 1)
		if err != nil {
			fatalf("%s: %v", label, err)
		}
		stop.Store(true)
		scanWG.Wait()
		if scanErr != nil {
			fatalf("%s: %v", label, scanErr)
		}
		if nsnap > 0 {
			// At least one full scan must have completed during the run,
			// and one more after the writers stopped must still match.
			if scans == 0 {
				start := time.Now()
				if bad, err := snapScanOnce(snaps[0], ref); err != nil || bad >= 0 {
					fatalf("%s: post-run frozen scan failed (diff=%d, err=%v)", label, bad, err)
				}
				scanHist.RecordSince(start)
				scans++
			}
			if bad, err := snapScanOnce(snaps[0], ref); err != nil || bad >= 0 {
				fatalf("%s: final frozen scan failed (diff=%d, err=%v)", label, bad, err)
			}
		}
		for _, sn := range snaps {
			sn.Release()
		}
		if n := st.SnapshotsOpen(); n != 0 {
			fatalf("%s: %d snapshots still open after release", label, n)
		}

		byCount[nsnap] = res.OpsPerSec
		rec := harness.BenchRecord{
			Experiment: "snap-writers", Index: label, Workload: "A",
			Threads: snapWorkers, Shards: 1, Batch: 1, Snapshots: nsnap,
			Ops: res.Ops, OpsPerSec: res.OpsPerSec,
			P50Micros: float64(res.Lat.Quantile(0.50)) / 1e3,
			P99Micros: float64(res.Lat.Quantile(0.99)) / 1e3,
		}
		fmt.Println(rec)
		records = append(records, rec)
		if nsnap > 0 {
			srec := harness.BenchRecord{
				Experiment: "snap-scan", Index: label, Workload: "A",
				Threads: 1, Shards: 1, Batch: 1, Snapshots: nsnap,
				Ops:       scans,
				OpsPerSec: float64(scans) / res.Duration.Seconds(),
				P50Micros: float64(scanHist.Quantile(0.50)) / 1e3,
				P99Micros: float64(scanHist.Quantile(0.99)) / 1e3,
			}
			fmt.Printf("%-10s %-14s %d full scans over %d keys, p50=%.0fus p99=%.0fus (all frozen-view checked)\n",
				srec.Experiment, label, scans, len(ref), srec.P50Micros, srec.P99Micros)
			records = append(records, srec)
		}
	}

	ratio1 := byCount[1] / byCount[0]
	ratio4 := byCount[4] / byCount[0]
	fmt.Printf("\nwriter throughput vs 0-snapshot baseline: 1 snap %.2fx, 4 snaps %.2fx (target: 1 snap >= 0.85x)\n",
		ratio1, ratio4)

	if c.benchJSON != "" {
		if err := harness.WriteBenchJSON(c.benchJSON, records); err != nil {
			fatalf("writing %s: %v", c.benchJSON, err)
		}
		fmt.Printf("wrote %d records to %s\n", len(records), c.benchJSON)
	}
}
