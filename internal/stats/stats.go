// Package stats holds the latency-statistics helpers shared by
// internal/loadsim and cmd/vcslo: one percentile definition.
package stats

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the ceil nearest-rank percentile of a sorted
// sample: the smallest observation such that at least a fraction p of
// the sample is <= it. Floor-based indexing (p*(n-1)) under-reports
// the tail — p99 of 10 samples picked the 9th value instead of the
// max. An empty sample yields 0.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// Sort sorts a latency sample in place (ascending) and returns it, so
// callers can write stats.Percentile(stats.Sort(lat), 0.99).
func Sort(sample []time.Duration) []time.Duration {
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	return sample
}

// Millis converts a duration to fractional milliseconds — the unit
// every BENCH_*.json latency field is recorded in.
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
