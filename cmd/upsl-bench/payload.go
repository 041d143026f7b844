package main

import (
	"fmt"

	"upskiplist"
	"upskiplist/internal/harness"
	"upskiplist/internal/ycsb"
)

// Extension — variable-size byte values on the slab-class arena. The
// payload experiment sweeps the insert value size over {8B, 64B, 256B,
// 1KB} on update-heavy YCSB-A and read-only YCSB-C, reporting both
// operations per second and value bytes moved per second. The 8-byte
// row is the word-value baseline the original reproduction measured
// (the value is the node word: no chunk, one fence per update); the
// larger rows pay chunk allocation and multi-line value persists.
// BENCH_payload.json holds
// one record per (workload, size) with ValueSize and BytesPerSec set.

func runPayload(c benchConfig) {
	header("Extension — slab value arena: payload-size sweep over YCSB A/C")
	const workers = 8
	fmt.Printf("(threads=%d, %d preloaded keys, %d ops/worker; bytes/s counts insert+read value payloads)\n",
		workers, c.preload, c.ops)
	fmt.Printf("%-10s %-10s %12s %14s %10s %10s\n",
		"workload", "value", "ops/s", "bytes/s", "p99 us", "fences/op")

	sizes := []int{8, 64, 256, 1024}
	workloads := []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC}

	var records []harness.BenchRecord
	for _, wl := range workloads {
		for _, vsz := range sizes {
			rec := c.measurePayload(wl, vsz, workers)
			records = append(records, rec)
			fmt.Printf("%-10s %-10s %12.0f %14.0f %10.2f %10.3f\n",
				wl.Name, fmtBytes(vsz), rec.OpsPerSec, rec.BytesPerSec,
				rec.P99Micros, rec.FencesPerOp)
		}
	}

	if c.benchJSON != "" {
		if err := harness.WriteBenchJSON(c.benchJSON, records); err != nil {
			fatalf("writing %s: %v", c.benchJSON, err)
		}
		fmt.Printf("\nwrote %d records to %s\n", len(records), c.benchJSON)
	}
}

// measurePayload preloads a fresh store at the given value size and
// replays the workload with every insert carrying vsz-byte values.
// Bytes/s multiplies the measured op rate by the mean value payload an
// operation touches (vsz for inserts and reads of the preloaded set).
func (c benchConfig) measurePayload(wl ycsb.Workload, vsz, workers int) harness.BenchRecord {
	c.valueSize = vsz // upslOptions sizes the pools for slab pages from this
	label := fmt.Sprintf("UPSL-%s", fmtBytes(vsz))
	u := c.newUPSL(c.keysNode, upskiplist.SinglePool, label)
	if err := harness.Preload(u, c.preload, 4); err != nil {
		fatalf("%s preload: %v", label, err)
	}
	run := ycsb.NewRun(wl, c.preload)
	before := u.PoolStats().Fences
	res, err := harness.RunMeasured(u, run, workers, c.ops, 1)
	if err != nil {
		fatalf("%s: %v", label, err)
	}
	return harness.BenchRecord{
		Experiment: "payload", Index: label, Workload: wl.Name,
		Threads: workers, Shards: 1, Batch: 1,
		Ops: res.Ops, OpsPerSec: res.OpsPerSec,
		ValueSize:   vsz,
		BytesPerSec: res.OpsPerSec * float64(vsz),
		P50Micros:   float64(res.Lat.Quantile(0.50)) / 1e3,
		P99Micros:   float64(res.Lat.Quantile(0.99)) / 1e3,
		FencesPerOp: harness.FencesPerOp(before, u.PoolStats().Fences, res.Ops),
	}
}

func fmtBytes(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
