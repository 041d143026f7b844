// Command upsl-crashtest runs the black-box crash-recovery correctness
// battery of Chapter 6: repeated trials that preload UPSkipList, run a
// concurrent insert-heavy workload (unique values cycling through the
// store's representations: inline word, out-of-line 8 bytes, 24 bytes),
// kill every worker at an arbitrary
// persistent-memory access, lose all unflushed cache lines (power-failure
// mode), recover, re-run the workload with the same thread identities,
// and check the complete operation history for strict linearizability.
//
// The paper analyzed 32 power-failure logs and found no violations
// (§6.3); the default here is 30 trials across a spread of crash points.
//
// Usage:
//
//	upsl-crashtest -trials 30 -mode power -workers 8 -keyspace 500
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"upskiplist/internal/crash"
)

func main() {
	var (
		trials   = flag.Int("trials", 30, "number of crash trials")
		mode     = flag.String("mode", "power", "failure mode: power (lose unflushed lines) or abort (caches survive)")
		workers  = flag.Int("workers", 8, "concurrent worker threads")
		keyspace = flag.Uint64("keyspace", 500, "key space size (paper: 50000)")
		preload  = flag.Uint64("preload", 200, "preloaded keys (paper: 20000)")
		postOps  = flag.Int("post-ops", 300, "post-recovery ops per worker")
		baseStep = flag.Int64("base-step", 5000, "first crash point (pool accesses)")
		evict    = flag.Float64("evict", 0, "probability an unflushed line survives (cache-eviction model)")
		eras     = flag.Int("eras", 1, "crash-recover cycles per trial")
		durable  = flag.Bool("durable", false, "record the operation history in persistent memory (libpmemlog-style, §6.1.1) and rebuild it after the crash")
		stepMul  = flag.Float64("step-mul", 1.35, "crash point growth per trial")
		verbose  = flag.Bool("v", false, "per-trial detail")
	)
	flag.Parse()

	cfg := crash.DefaultTrialConfig()
	cfg.Workers = *workers
	cfg.Keyspace = *keyspace
	cfg.Preload = *preload
	cfg.PostOps = *postOps
	cfg.EvictProb = *evict
	cfg.Eras = *eras
	switch *mode {
	case "power":
		cfg.Mode = crash.PowerFailure
	case "abort":
		cfg.Mode = crash.Abort
	default:
		fmt.Fprintf(os.Stderr, "upsl-crashtest: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	fmt.Printf("crash battery: %d trials, mode=%s, workers=%d, keyspace=%d\n",
		*trials, cfg.Mode, cfg.Workers, cfg.Keyspace)

	violations := 0
	step := float64(*baseStep)
	start := time.Now()
	for trial := 1; trial <= *trials; trial++ {
		cfg.CrashAfter = int64(step)
		cfg.Seed = uint64(trial)
		step *= *stepMul
		if step > 5e6 {
			step = float64(*baseStep)
		}

		run := crash.RunTrial
		if *durable {
			run = crash.RunDurableTrial
		}
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trial %d: error: %v\n", trial, err)
			os.Exit(1)
		}
		checkErr := res.History.Check()
		invErr := res.Store.NewWorker(0).CheckInvariants()
		status := "linearizable"
		if checkErr != nil {
			status = "VIOLATION: " + checkErr.Error()
			violations++
		}
		if invErr != nil {
			status += " | INVARIANT BROKEN: " + invErr.Error()
			violations++
		}
		if *verbose || checkErr != nil || invErr != nil {
			fmt.Printf("trial %2d: crash@%-8d ops-before=%-6d pending=%-2d lines-lost=%-4d ops-after=%-6d %s\n",
				trial, cfg.CrashAfter, res.OpsBefore, res.OpsPending,
				res.LinesReverted, res.OpsAfter, status)
		} else {
			fmt.Printf("trial %2d: crash@%-8d pending=%-2d lines-lost=%-4d ok\n",
				trial, cfg.CrashAfter, res.OpsPending, res.LinesReverted)
		}
	}
	fmt.Printf("\n%d trials in %v: %d strict-linearizability violations\n",
		*trials, time.Since(start).Round(time.Millisecond), violations)
	if violations > 0 {
		os.Exit(1)
	}
	fmt.Println("result matches the paper: no violations found")
}
