package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"upskiplist/internal/hist"
	"upskiplist/internal/ycsb"
)

// BenchRecord is one machine-readable benchmark data point, written by
// WriteBenchJSON. Latency percentiles are per operation (or per batch
// when Batch > 1 — the record says which via the Batch field) in
// microseconds; FencesPerOp is the simulated persistence-fence count
// divided by operations executed, the group-commit amortization metric.
type BenchRecord struct {
	Experiment string `json:"experiment"`
	Index      string `json:"index"`
	Workload   string `json:"workload"`
	Threads    int    `json:"threads"`
	Shards     int    `json:"shards"`
	Batch      int    `json:"batch"`
	// Conns/Depth describe network-service runs (the server experiment):
	// client connections and per-connection pipeline depth. Zero for
	// in-process experiments.
	Conns     int     `json:"conns,omitempty"`
	Depth     int     `json:"depth,omitempty"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// P95/P99.9 extend the latency tail picture; zero (omitted) for
	// experiments that only report the classic p50/p99 pair.
	P95Micros  float64 `json:"p95_micros,omitempty"`
	P999Micros float64 `json:"p999_micros,omitempty"`
	// OpLatency breaks the run's latency down by operation kind (map key
	// is the wire opcode name, e.g. "GET"). Present for network-service
	// runs, where read and write round trips diverge.
	OpLatency   map[string]LatencySummary `json:"op_latency,omitempty"`
	FencesPerOp float64                   `json:"fences_per_op"`
	// Snapshots is the number of MVCC snapshots held open for the whole
	// run (the snap experiment). Zero (omitted) elsewhere.
	Snapshots int `json:"snapshots,omitempty"`
	// Payload-sweep fields (the payload experiment): the fixed insert
	// value size in bytes and the resulting value-byte bandwidth
	// (OpsPerSec x ValueSize). Zero (omitted) elsewhere.
	ValueSize   int     `json:"value_size,omitempty"`
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	// Recovery-experiment fields: the worker budget recovery ran with,
	// time from Load start to store ready (simulated wall: the cost
	// model's charge ledger scheduled onto the worker budget), pairs or
	// keys restored, the recovery rate, which loader ran ("phys" for
	// pool images, "bulk" for the sorted-dump bottom-up build, "replay"
	// for the per-key fallback), pages the crash-leak sweeps scanned,
	// and the parallel speedup under the cost model. Zero (omitted)
	// elsewhere.
	Parallelism     int     `json:"parallelism,omitempty"`
	TimeToReadySecs float64 `json:"time_to_ready_secs,omitempty"`
	KeysRecovered   uint64  `json:"keys_recovered,omitempty"`
	KeysPerSec      float64 `json:"keys_per_sec,omitempty"`
	Loader          string  `json:"loader,omitempty"`
	PagesSwept      uint64  `json:"pages_swept,omitempty"`
	SimSpeedup      float64 `json:"sim_speedup,omitempty"`
}

// LatencySummary is the percentile fingerprint of one latency
// histogram, in microseconds.
type LatencySummary struct {
	Count      uint64  `json:"count"`
	P50Micros  float64 `json:"p50_micros"`
	P95Micros  float64 `json:"p95_micros"`
	P99Micros  float64 `json:"p99_micros"`
	P999Micros float64 `json:"p999_micros"`
}

// Summarize reduces a latency histogram (nanosecond samples) to its
// percentile summary.
func Summarize(h *hist.Histogram) LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	us := func(q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
	return LatencySummary{
		Count:      h.Count(),
		P50Micros:  us(0.50),
		P95Micros:  us(0.95),
		P99Micros:  us(0.99),
		P999Micros: us(0.999),
	}
}

// WriteBenchJSON writes records as an indented JSON array (one file, one
// experiment suite — downstream tooling slurps the whole array).
func WriteBenchJSON(path string, records []BenchRecord) error {
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MeasuredResult is RunMeasured's combined throughput + latency output.
type MeasuredResult struct {
	Ops       int
	Duration  time.Duration
	OpsPerSec float64
	// Lat aggregates per-item latencies across all threads: per operation
	// normally, per batch in batch mode.
	Lat *hist.Histogram
}

// RunMeasured replays opsPerThread pre-generated operations on each of
// `threads` handles, timing every item into a per-thread histogram that
// is merged afterwards — one pass yields both throughput and latency
// percentiles (unlike RunThroughput/RunLatency, which run separate
// passes matching the paper's separate figures).
//
// With batchSize > 1 the stream is cut into consecutive runs; runs of
// batchable operations (reads/updates/inserts) go through BatchHandle
// as one group-committed batch — the latency item is then the batch —
// while scans fall back to per-op Scanner calls. Indexes without
// BatchHandle replay op-by-op regardless of batchSize.
func RunMeasured(idx Index, run *ycsb.Run, threads, opsPerThread, batchSize int) (MeasuredResult, error) {
	streams := make([][]ycsb.Op, threads)
	for t := 0; t < threads; t++ {
		streams[t] = run.NewStream(int64(t)+1).Fill(nil, opsPerThread)
	}
	handles := make([]Handle, threads)
	for t := 0; t < threads; t++ {
		handles[t] = idx.NewHandle(t)
	}
	hists := make([]hist.Histogram, threads)
	errs := make([]error, threads)
	runtime.GC()

	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := handles[t]
			bh, canBatch := h.(BatchHandle)
			if batchSize > 1 && canBatch {
				errs[t] = replayBatched(h, bh, streams[t], batchSize, &hists[t])
				return
			}
			errs[t] = replaySingles(h, streams[t], &hists[t])
		}(t)
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return MeasuredResult{}, err
		}
	}
	res := MeasuredResult{
		Ops:       threads * opsPerThread,
		Duration:  dur,
		OpsPerSec: float64(threads*opsPerThread) / dur.Seconds(),
		Lat:       &hist.Histogram{},
	}
	for t := range hists {
		res.Lat.Merge(&hists[t])
	}
	return res, nil
}

func replaySingles(h Handle, ops []ycsb.Op, lat *hist.Histogram) error {
	sc, canScan := h.(Scanner)
	for _, op := range ops {
		start := time.Now()
		switch op.Type {
		case ycsb.Read:
			h.Read(op.Key)
		case ycsb.Scan:
			if canScan {
				sc.Scan(op.Key, op.ScanLen)
			} else {
				h.Read(op.Key)
			}
		default:
			if err := h.Insert(op.Key, op.Value&ValueMask|1); err != nil {
				return err
			}
		}
		lat.RecordSince(start)
	}
	return nil
}

// replayBatched cuts the stream into consecutive batchSize runs,
// group-committing the batchable ops of each run and executing its scans
// singly. The histogram item is one batch (plus one item per scan).
func replayBatched(h Handle, bh BatchHandle, ops []ycsb.Op, batchSize int, lat *hist.Histogram) error {
	sc, canScan := h.(Scanner)
	buf := make([]ycsb.Op, 0, batchSize)
	for lo := 0; lo < len(ops); lo += batchSize {
		hi := lo + batchSize
		if hi > len(ops) {
			hi = len(ops)
		}
		buf = buf[:0]
		chunk := ops[lo:hi]
		start := time.Now()
		for _, op := range chunk {
			if op.Type == ycsb.Scan {
				if canScan {
					sc.Scan(op.Key, op.ScanLen)
				} else {
					h.Read(op.Key)
				}
				continue
			}
			buf = append(buf, op)
		}
		if len(buf) > 0 {
			if err := bh.ApplyBatch(buf); err != nil {
				return err
			}
		}
		lat.RecordSince(start)
	}
	return nil
}

// FencesPerOp derives the amortization metric from two pool-stat
// snapshots taken around a run of n operations.
func FencesPerOp(before, after uint64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(after-before) / float64(n)
}

// String renders a record as one human-readable line (bench stdout).
func (r BenchRecord) String() string {
	s := fmt.Sprintf("%-10s %-14s %-2s thr=%-3d shards=%-2d batch=%-3d %12.0f ops/s  p50=%7.2fus p99=%8.2fus fences/op=%.3f",
		r.Experiment, r.Index, r.Workload, r.Threads, r.Shards, r.Batch,
		r.OpsPerSec, r.P50Micros, r.P99Micros, r.FencesPerOp)
	if r.Depth > 0 {
		s += fmt.Sprintf(" conns=%d depth=%d", r.Conns, r.Depth)
	}
	return s
}
