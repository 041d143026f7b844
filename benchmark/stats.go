package main

import (
	"math"
	"slices"
)

// median returns the middle value of v (the mean of the two middle
// values for an even count); 0 for none. v is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// bestDecile returns the value that a tenth of v beats: the 90th
// percentile when higher is better, the 10th when lower is (the best
// value itself for fewer than eleven). Interference from a shared host
// only ever makes a segment slower, never faster, so the best decile of a
// run's segments is what the program does when the host lets it run —
// and it repeats from run to run several times more closely than the
// median does. 0 for none.
func bestDecile(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := (len(s) - 1) / 10
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// quartiles returns Q1, Q2, Q3 of v the way Python's
// statistics.quantiles(v, n=4) (method "exclusive") does, which is what
// the driver judges the benchmark's spread with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// percentile returns the q-quantile (0 < q < 1) of sorted latencies in
// ns: the smallest sample with at least q of the samples at or below it.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}
