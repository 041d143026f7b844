package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// spec is the part of BENCHMARK.json the self-check reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// selfCheck runs every workload f.aa times, each run a process of its
// own with its own seed exactly as the driver runs them, and judges each
// end-to-end metric the way the driver does: the distance between the
// first and third quartile of the runs, as a share of their median, must
// stay within the metric's bound — and should stay within a third of it.
func selfCheck(f flags) int {
	spec, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa runs from the repository root:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	worst := 0
	for _, w := range spec.Workloads {
		if f.workload != "" && f.workload != w.Name {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < f.aa; i++ {
			cmd := exec.Command(self,
				"--workload", w.Name, "--seed", strconv.FormatUint(f.seed+uint64(i), 10),
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0",
				"--scale", strconv.FormatFloat(f.scale, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n%s", w.Name, f.seed+uint64(i), err, out)
				return 1
			}
			var last []byte
			for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
				last = append(last[:0], sc.Bytes()...)
			}
			var res struct {
				Correct bool              `json:"correct"`
				Metrics map[string]Metric `json:"metrics"`
			}
			if err := json.Unmarshal(last, &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: bad result line %q (%v)\n", w.Name, f.seed+uint64(i), last, err)
				return 1
			}
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
			}
		}
		fmt.Printf("== %s  %d runs, seeds %d..%d, %d s each\n", w.Name, f.aa, f.seed, f.seed+uint64(f.aa)-1, spec.RunSeconds)
		fmt.Printf("  %-14s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / q2
			verdict, rank := "steady (< bound/3)", 0
			switch {
			case m.Name == "setup_s":
				verdict = "(spread not judged)"
			case spread > m.Bound:
				verdict, rank = "UNSTEADY (> bound)", 2
			case spread > m.Bound/3:
				verdict, rank = "within bound, above bound/3", 1
			}
			worst = max(worst, rank)
			fmt.Printf("  %-14s %12.5g %12.5g %12.5g %7.2f%% %6.0f%%  %s\n", m.Name, q1, q2, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	if worst == 2 {
		return 1
	}
	return 0
}
