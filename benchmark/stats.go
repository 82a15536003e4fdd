package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p < 1) of an ascending-sorted
// sample by the nearest-rank rule: the smallest value with at least p·n
// samples at or below it. Nearest rank never interpolates, so a reported
// latency is always one that was observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// median sorts xs in place and returns its middle value (mean of the two
// middle values for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sample is one completed op: when it finished relative to the window
// start, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// subWindows is how many equal sub-windows a window of good ops supports
// for its p-quantile, at most limit and at least one: as many as leave
// twice minBeyond samples beyond the quantile in each, were the ops spread
// evenly. A host in a slow phase finishes fewer ops and gets fewer, longer
// sub-windows instead of a failed run.
func subWindows(good int, p float64, limit int) int {
	return max(1, min(limit, int(float64(good)*(1-p)/(2*minBeyond))))
}

// windowedTail splits [0, window) into n equal sub-windows by completion
// time, takes the p-quantile of the latencies in each, and returns the
// lowest of those quantiles in milliseconds: the tail in the least
// disturbed part of the run. A single p99 over the whole window is decided
// by its worst few stalls, and on a shared box most of those are the
// host's, not the program's; the program's own tail (GC, locks) is in every
// sub-window. Only sub-windows that keep at least minBeyond samples
// strictly above the quantile's rank count: with fewer, the quantile is an
// outlier, not a measurement. counted is how many did; with none, ms is 0.
func windowedTail(samples []sample, window time.Duration, n int, p float64) (ms float64, counted int) {
	buckets := make([][]float64, n)
	for _, s := range samples {
		i := int(int64(s.at) * int64(n) / int64(window))
		if i < 0 || i >= n {
			continue
		}
		buckets[i] = append(buckets[i], float64(s.lat)/float64(time.Millisecond))
	}
	for _, b := range buckets {
		rank := int(math.Ceil(p * float64(len(b))))
		if len(b)-rank < minBeyond {
			continue
		}
		sort.Float64s(b)
		if q := percentile(b, p); counted == 0 || q < ms {
			ms = q
		}
		counted++
	}
	return ms, counted
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the gate uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure a bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// timeLoop reports the median per-call cost in nanoseconds of fn over
// rounds batches of iters calls each. Batching keeps the two clock reads
// (~50 ns) out of nanosecond-scale measurements.
func timeLoop(rounds, iters int, fn func()) (ns float64, n int) {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(iters)
	}
	return median(per), rounds * iters
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durMedian is the median of ds in the given unit (time.Millisecond, ...).
func durMedian(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}
