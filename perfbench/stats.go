package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it,
// sorted[ceil(p/100·n)−1]. It is the one percentile convention the
// benchmark uses, for every latency it reports; the median of an even
// sample is therefore the lower of the two middle values. NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// diff returns the element-wise differences a[i]−b[i] of two per-request
// series of one script: pairing by request cancels the cost differences
// between requests, so a median of diff isolates what differs between
// the two passes.
func diff(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] - b[i]
	}
	return out
}
