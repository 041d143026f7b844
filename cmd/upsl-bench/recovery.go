package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"upskiplist"
	"upskiplist/internal/harness"
)

// Extension — parallel recovery. The recovery experiment measures time
// to ready over store size x value size x recovery parallelism:
//
//   - "phys": Save writes per-shard pool images; LoadWithConfig reopens
//     them with 1..8 recovery workers (shard fan-out + page-parallel
//     allocator/slab scans). Time to ready is the simulated wall — the
//     cost model's charge ledger, per-shard-attributed (shards never
//     share a pool) and scheduled onto the worker budget — so the
//     scaling curve reflects the simulated PMEM latencies like every
//     other number in the suite, regardless of host core count.
//   - "bulk" vs "replay": SaveOnline writes a sorted v4 pairs dump and
//     Load rebuilds the list from it bottom-up (full nodes, one
//     coalesced fence per node). The replay row is the baseline that
//     build is measured against and lives here, not in the product:
//     the same pairs pushed 1024 at a time through Worker.ApplyBatch
//     into a fresh store of the same geometry, timed from Create to
//     the last batch. Keys/s is the headline.
//
// BENCH_recovery.json holds one record per point with Parallelism,
// TimeToReadySecs, KeysRecovered, KeysPerSec, Loader and SimSpeedup.

func runRecoveryExp(c benchConfig) {
	header("Extension — parallel recovery: shard fan-out, page-parallel sweeps, bulk dump load")
	const shards = 8
	pars := []int{1, 2, 4, 8}
	sizes := []uint64{c.preload, c.preload * 4}
	valueSizes := []int{8, 256}
	fmt.Printf("(shards=%d; store sizes %v keys; value sizes %v bytes; time-to-ready is simulated wall under the cost model)\n",
		shards, sizes, valueSizes)

	var records []harness.BenchRecord
	fmt.Printf("%-8s %-10s %-8s %-4s %14s %12s %10s\n",
		"loader", "keys", "value", "par", "ready (ms)", "keys/s", "speedup")
	row := func(rec harness.BenchRecord) {
		records = append(records, rec)
		fmt.Printf("%-8s %-10d %-8s %-4d %14.2f %12.0f %9.2fx\n",
			rec.Loader, rec.KeysRecovered, fmtBytes(rec.ValueSize), rec.Parallelism,
			rec.TimeToReadySecs*1e3, rec.KeysPerSec, rec.SimSpeedup)
	}

	for _, keys := range sizes {
		for _, vsz := range valueSizes {
			dir := benchDir(fmt.Sprintf("recovery-%d-%d", keys, vsz))
			st := c.buildRecoveryStore(keys, vsz, shards)
			if err := st.Save(dir); err != nil {
				fatalf("save: %v", err)
			}
			for _, par := range pars {
				ld, err := upskiplist.LoadWithConfig(dir, upskiplist.LoadConfig{RecoveryParallelism: par, Cost: c.cost})
				if err != nil {
					fatalf("load: %v", err)
				}
				row(recoveryRecord("phys", keys, vsz, shards, ld.RecoveryStats()))
			}
			os.RemoveAll(dir)
		}
	}

	fmt.Println()
	fmt.Println("Sorted-dump loaders (v4 pairs): bottom-up bulk build vs per-key replay")
	for _, keys := range sizes {
		for _, vsz := range valueSizes {
			dir := benchDir(fmt.Sprintf("recovery-dump-%d-%d", keys, vsz))
			st := c.buildRecoveryStore(keys, vsz, shards)
			if err := st.SaveOnline(dir); err != nil {
				fatalf("save-online: %v", err)
			}
			for _, par := range []int{1, 8} {
				ld, err := upskiplist.LoadWithConfig(dir, upskiplist.LoadConfig{RecoveryParallelism: par, Cost: c.cost})
				if err != nil {
					fatalf("bulk load: %v", err)
				}
				row(recoveryRecord("bulk", keys, vsz, shards, ld.RecoveryStats()))
			}
			row(recoveryRecord("replay", keys, vsz, shards, c.perKeyBaseline(keys, vsz, shards)))
			os.RemoveAll(dir)
		}
	}

	// Headline checks mirrored from the JSON so a human run shows them.
	summary := func(loader string, keys uint64, vsz, par int) *harness.BenchRecord {
		for i := range records {
			r := &records[i]
			if r.Loader == loader && r.KeysRecovered == keys && r.ValueSize == vsz && r.Parallelism == par {
				return r
			}
		}
		return nil
	}
	big := sizes[len(sizes)-1]
	if s1, s8 := summary("phys", big, 256, 1), summary("phys", big, 256, 8); s1 != nil && s8 != nil {
		fmt.Printf("\nphys %dk x 256B: 8-way time-to-ready %.2fms vs serial %.2fms (%.2fx faster)\n",
			big/1000, s8.TimeToReadySecs*1e3, s1.TimeToReadySecs*1e3,
			s1.TimeToReadySecs/s8.TimeToReadySecs)
	}
	if br, rr := summary("bulk", big, 256, 8), summary("replay", big, 256, 1); br != nil && rr != nil {
		fmt.Printf("bulk vs replay %dk x 256B: %.0f vs %.0f keys/s (%.2fx)\n",
			big/1000, br.KeysPerSec, rr.KeysPerSec, br.KeysPerSec/rr.KeysPerSec)
	}

	if c.benchJSON != "" {
		if err := harness.WriteBenchJSON(c.benchJSON, records); err != nil {
			fatalf("writing %s: %v", c.benchJSON, err)
		}
		fmt.Printf("\nwrote %d records to %s\n", len(records), c.benchJSON)
	}
}

// newRecoveryStore creates the empty sharded store of the recovery
// experiment. Pools are sized snugly for `keys` pairs of vsz-byte values
// — recovery cost should track live data, not dead pool space — and
// chunks kept small so the slab sweeps see many pages to partition.
func (c benchConfig) newRecoveryStore(keys uint64, vsz, shards int) *upskiplist.Store {
	opts := upskiplist.DefaultOptions()
	opts.MaxHeight = c.maxHeight
	opts.KeysPerNode = c.keysNode
	opts.Shards = shards
	opts.NUMANodes = c.numaNodes
	opts.Cost = c.cost
	blockWords := uint64(5+c.maxHeight+2*c.keysNode) + 8
	nodes := keys/uint64(maxInt(c.keysNode/2, 1)) + 256
	cw := uint64(4) // slab chunk classes are power-of-two words
	for (cw-1)*8 < uint64(vsz) {
		cw *= 2
	}
	valWords := cw * keys * 5 / 4
	opts.PoolWords = (nodes*blockWords*3+valWords)/uint64(shards) + (1 << 18)
	opts.ChunkWords = 1 << 14
	opts.MaxChunks = opts.PoolWords/opts.ChunkWords + 16
	st, err := upskiplist.Create(opts)
	if err != nil {
		fatalf("create: %v", err)
	}
	return st
}

// recoveryPairs yields the experiment's pairs in ascending key order:
// each value's first 8 bytes derive from its key, so readback checks are
// possible downstream. The slice passed to fn is reused.
func recoveryPairs(keys uint64, vsz int, fn func(key uint64, val []byte)) {
	val := make([]byte, vsz)
	for i := uint64(0); i < keys; i++ {
		key := upskiplist.KeyMin + i
		binary.LittleEndian.PutUint64(val, key*0x9e3779b97f4a7c15)
		fn(key, val)
	}
}

// buildRecoveryStore fills a fresh store one Put at a time.
func (c benchConfig) buildRecoveryStore(keys uint64, vsz, shards int) *upskiplist.Store {
	st := c.newRecoveryStore(keys, vsz, shards)
	w := st.NewWorker(0)
	recoveryPairs(keys, vsz, func(key uint64, val []byte) {
		if _, _, err := w.Put(key, val); err != nil {
			fatalf("preload put: %v", err)
		}
	})
	return st
}

// perKeyBaseline is what the bulk loader is measured against, reported
// in the shape of a recovery: one worker, so the wall is the critical
// path.
func (c benchConfig) perKeyBaseline(keys uint64, vsz, shards int) upskiplist.RecoveryStats {
	const batch = 1024
	t0 := time.Now()
	w := c.newRecoveryStore(keys, vsz, shards).NewWorker(0)
	ops := make([]upskiplist.Op, 0, batch)
	vals := make([]byte, 0, batch*vsz) // never regrown: ops alias it
	flush := func() {
		for _, r := range w.ApplyBatch(ops) {
			if r.Err != nil {
				fatalf("replay: %v", r.Err)
			}
		}
		ops, vals = ops[:0], vals[:0]
	}
	recoveryPairs(keys, vsz, func(key uint64, val []byte) {
		vals = append(vals, val...)
		ops = append(ops, upskiplist.Op{Kind: upskiplist.OpInsert, Key: key, Value: vals[len(vals)-vsz:]})
		if len(ops) == batch {
			flush()
		}
	})
	flush()
	return upskiplist.RecoveryStats{Parallelism: 1, Wall: time.Since(t0)}
}

// recoveryRecord reduces one recovery's RecoveryStats to a bench record.
// Time to ready is SimWall — real wall scaled by the charge ledger's
// critical-path share (== real wall for serial recovery).
func recoveryRecord(loader string, keys uint64, vsz, shards int, rec upskiplist.RecoveryStats) harness.BenchRecord {
	ready := rec.SimWall().Seconds()
	keysPerSec := 0.0
	if ready > 0 {
		keysPerSec = float64(keys) / ready
	}
	return harness.BenchRecord{
		Experiment: "recovery", Index: "UPSL", Workload: loader,
		Threads: rec.Parallelism, Shards: shards, Batch: 1,
		Ops:             int(keys),
		ValueSize:       vsz,
		Parallelism:     rec.Parallelism,
		TimeToReadySecs: ready,
		KeysRecovered:   keys,
		KeysPerSec:      keysPerSec,
		Loader:          loader,
		PagesSwept:      rec.PagesSwept,
		SimSpeedup:      rec.SimSpeedup(),
	}
}

// benchDir makes a scratch directory for recovery images under the
// system temp dir.
func benchDir(name string) string {
	dir, err := os.MkdirTemp("", "upsl-bench-"+name+"-*")
	if err != nil {
		fatalf("tempdir: %v", err)
	}
	return dir
}
