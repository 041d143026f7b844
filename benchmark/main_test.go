package main

import (
	"testing"
)

// smoke is every workload shrunk to a hundredth with windows of a few
// milliseconds: the numbers mean nothing, the code paths are all there.
var smoke = flags{seed: 1, seconds: 0.02, scale: 0.01}

// TestSmoke runs both passes of every workload and asserts that the run
// reports every metric BENCHMARK.json names, in the unit it names, and
// that every check passes.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json lists %q: %v", w.Name, err)
		}
		listed[w.Name] = true
	}
	f := smoke
	f.out = t.TempDir()
	for _, sp := range Workloads {
		if !listed[sp.Name] && sp.Name != "point-a-2w" {
			t.Errorf("workload %s is not in BENCHMARK.json", sp.Name)
		}
		for _, pass := range []struct {
			traced bool
			want   []metricSpec
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res, err := runOne(sp, f, pass.traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.Name, pass.traced, err)
			}
			if res.Check.Failed != 0 || res.Check.Lost != 0 || res.Check.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed, %d acknowledged writes lost: %v",
					sp.Name, pass.traced, res.Check.Failed, res.Check.Attempted, res.Check.Lost, res.Check.Notes)
			}
			if len(res.Metrics) != len(pass.want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", sp.Name, pass.traced, len(res.Metrics), len(pass.want))
			}
			for _, m := range pass.want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", sp.Name, pass.traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", sp.Name, m.Name, got.Unit, m.Unit)
				}
				if !pass.traced && ok && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", sp.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCountsRepeatExactly runs the traced pass twice at one seed on the
// single-worker embedded workloads without removes and asserts that the
// per-operation counts — what the cost model charged, fences, nodes
// visited — are bit-identical: they can be compared across commits as
// counts, with no statistics.
func TestCountsRepeatExactly(t *testing.T) {
	exact := []string{
		"pmem.model_units_per_op", "pmem.fences_per_op", "pmem.flushes_per_op", "pmem.loads_per_op",
		"pmem.misses_per_op", "skiplist.nodes_per_op", "skiplist.keys_probed_per_op",
		"slab.chunks_alloced_per_write",
	}
	f := smoke
	f.scale = 0.02
	f.out = t.TempDir()
	for _, name := range []string{"point-a-1w", "value-1k", "scan-e-4s"} {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := runOne(sp, f, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOne(sp, f, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range exact {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s = %v then %v at the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if a.Metrics["pmem.model_units_per_op"].Value == 0 {
			t.Errorf("%s: no model units were charged", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
