package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"upskiplist"
	"upskiplist/internal/harness"
)

// Extension — recovery. The recovery experiment measures time to ready
// (wall clock) over store size x value size x loader:
//
//   - "phys": Save writes per-shard pool images; Load reopens them, the
//     shards recovering side by side on min(GOMAXPROCS, shards)
//     goroutines.
//   - "bulk" vs "replay": SaveOnline writes a sorted v4 pairs dump and
//     Load rebuilds the list from it bottom-up (full nodes, one
//     coalesced fence per node). The replay row is the baseline that
//     build is measured against and lives here, not in the product:
//     the same pairs pushed 1024 at a time through Worker.ApplyBatch
//     into a fresh store of the same geometry, timed from Create to
//     the last batch. Keys/s is the headline.
//
// BENCH_recovery.json holds one record per point with TimeToReadySecs,
// KeysRecovered, KeysPerSec, Loader and PagesSwept.

func runRecoveryExp(c benchConfig) {
	header("Extension — recovery: pool images, bulk dump load, per-key replay")
	const shards = 8
	sizes := []uint64{c.preload, c.preload * 4}
	valueSizes := []int{8, 256}
	fmt.Printf("(shards=%d; store sizes %v keys; value sizes %v bytes; time to ready is wall clock)\n",
		shards, sizes, valueSizes)

	var records []harness.BenchRecord
	fmt.Printf("%-8s %-10s %-8s %14s %12s\n", "loader", "keys", "value", "ready (ms)", "keys/s")
	row := func(rec harness.BenchRecord) {
		records = append(records, rec)
		fmt.Printf("%-8s %-10d %-8s %14.2f %12.0f\n",
			rec.Loader, rec.KeysRecovered, fmtBytes(rec.ValueSize), rec.TimeToReadySecs*1e3, rec.KeysPerSec)
	}
	load := func(dir string) upskiplist.RecoveryStats {
		ld, err := upskiplist.LoadWithConfig(dir, upskiplist.LoadConfig{Cost: c.cost})
		if err != nil {
			fatalf("load %s: %v", dir, err)
		}
		return ld.RecoveryStats()
	}

	for _, keys := range sizes {
		for _, vsz := range valueSizes {
			st := c.buildRecoveryStore(keys, vsz, shards)
			phys := benchDir(fmt.Sprintf("recovery-%d-%d", keys, vsz))
			dump := benchDir(fmt.Sprintf("recovery-dump-%d-%d", keys, vsz))
			if err := st.Save(phys); err != nil {
				fatalf("save: %v", err)
			}
			if err := st.SaveOnline(dump); err != nil {
				fatalf("save-online: %v", err)
			}
			row(recoveryRecord("phys", keys, vsz, shards, load(phys)))
			row(recoveryRecord("bulk", keys, vsz, shards, load(dump)))
			row(recoveryRecord("replay", keys, vsz, shards, c.perKeyBaseline(keys, vsz, shards)))
			os.RemoveAll(phys)
			os.RemoveAll(dump)
		}
	}

	// Headline check mirrored from the JSON so a human run shows it.
	summary := func(loader string, keys uint64, vsz int) *harness.BenchRecord {
		for i := range records {
			r := &records[i]
			if r.Loader == loader && r.KeysRecovered == keys && r.ValueSize == vsz {
				return r
			}
		}
		return nil
	}
	big := sizes[len(sizes)-1]
	if br, rr := summary("bulk", big, 256), summary("replay", big, 256); br != nil && rr != nil {
		fmt.Printf("\nbulk vs replay %dk x 256B: %.0f vs %.0f keys/s (%.2fx)\n",
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
// chunks kept small so the slab sweeps see many pages.
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
// in the shape of a recovery.
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
	return upskiplist.RecoveryStats{Wall: time.Since(t0)}
}

// recoveryRecord reduces one recovery's RecoveryStats to a bench record.
func recoveryRecord(loader string, keys uint64, vsz, shards int, rec upskiplist.RecoveryStats) harness.BenchRecord {
	ready := rec.Wall.Seconds()
	keysPerSec := 0.0
	if ready > 0 {
		keysPerSec = float64(keys) / ready
	}
	return harness.BenchRecord{
		Experiment: "recovery", Index: "UPSL", Workload: loader,
		Shards: shards, Batch: 1,
		Ops:             int(keys),
		ValueSize:       vsz,
		TimeToReadySecs: ready,
		KeysRecovered:   keys,
		KeysPerSec:      keysPerSec,
		Loader:          loader,
		PagesSwept:      rec.PagesSwept,
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
