// Command benchmark is the repository's benchmark: seven named workloads
// over the whole product path — embedded engine, slab values, scans,
// churn with online reclamation, the wire server — each measured end to
// end (untraced) and layer by layer (traced), every result checked.
//
//	bash benchmark/run.sh                          every workload, both passes
//	bash benchmark/run.sh --workload value-1k      one workload, end-to-end metrics
//	bash benchmark/run.sh --workload value-1k --trace 1
//	bash benchmark/run.sh --aa 10                  run-to-run spread against the bounds
//
// With --workload the last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type flags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	out      string
	aa       int
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "workload to run (default: all of them, both passes)")
	flag.Uint64Var(&f.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.Float64Var(&f.seconds, "seconds", 8, "length of the measured window")
	flag.IntVar(&f.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.Float64Var(&f.scale, "scale", 1, "shrink key counts and segments (smoke tests only; results mean nothing)")
	flag.StringVar(&f.out, "out", ".bench_build/trace", "directory the traced pass writes its spans and counters to")
	flag.IntVar(&f.aa, "aa", 0, "self-check: run every workload N times with N seeds and compare each metric's spread with its bound")
	flag.Parse()
	if flag.NArg() > 0 || (f.trace != 0 && f.trace != 1) || f.seconds <= 0 || f.scale <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(f))
}

func run(f flags) int {
	switch {
	case f.aa > 0:
		return selfCheck(f)
	case f.workload != "":
		sp, err := specByName(f.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		res, err := runOne(sp, f, f.trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(res)
		printJSON(res)
		if res.Check.Failed > 0 {
			return 1
		}
		return 0
	}
	failed := false
	for _, sp := range Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(sp, f, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.Name, err)
				return 1
			}
			printResult(res)
			failed = failed || res.Check.Failed > 0
		}
	}
	if failed {
		fmt.Println("FAILED: at least one check did not pass")
		return 1
	}
	fmt.Println("all checks passed")
	return 0
}

func runOne(sp Spec, f flags, traced bool) (*Result, error) {
	sp = sp.scaled(f.scale)
	if traced {
		return runTraced(sp, f.seed, f.seconds, f.out)
	}
	return runUntraced(sp, f.seed, f.seconds)
}

// printResult prints every metric by name with its unit.
func printResult(r *Result) {
	pass := "untraced: end-to-end metrics"
	if r.Traced {
		pass = "traced: per-layer metrics"
	}
	fmt.Printf("== %s  seed %d  %s  (%d segments)\n", r.Workload, r.Seed, pass, r.Segments)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		if s, ok := r.Samples[n]; ok {
			note = fmt.Sprintf("   %s of %d segments × %d samples", r.Estimator, r.Segments, s)
		}
		fmt.Printf("  %-32s %16.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	fmt.Printf("  checked %d operations, %d failed, %d acknowledged writes lost\n",
		r.Check.Attempted, r.Check.Failed, r.Check.Lost)
	for _, n := range r.Check.Notes {
		fmt.Println("    FAILED:", n)
	}
	if r.TraceFile != "" {
		fmt.Println("  spans and counters:", r.TraceFile)
	}
}

// printJSON prints the one-line result the driver reads.
func printJSON(r *Result) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Check.Failed == 0, r.Check.Attempted, r.Check.Failed, r.Metrics}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Println(string(line))
}
