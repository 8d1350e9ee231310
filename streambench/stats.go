package main

import (
	"math"
	"sort"
)

// posInf stands for the latency of a failed operation.
var posInf = math.Inf(1)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentiles are the percentiles a tail figure may be reported
// at, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// rank is the index of percentile p in n sorted samples (nearest rank).
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// supportedTail returns the highest percentile in tailPercentiles, not
// above limit, that leaves at least minBeyond of n samples beyond it,
// or 0 when even the median does not.
func supportedTail(n int, limit float64) float64 {
	for _, p := range tailPercentiles {
		if p > limit {
			continue
		}
		if n-1-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of xs; +Inf entries
// stand for failed operations and sort last. It returns NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))]
}

// tail returns the value at the highest supported percentile not above
// limit, and that percentile.
func tail(xs []float64, limit float64) (float64, float64) {
	p := supportedTail(len(xs), limit)
	if p == 0 {
		p = 0.5
	}
	return percentile(xs, p), p
}

// median is the middle value of xs (mean of the two middle values for
// even lengths).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
