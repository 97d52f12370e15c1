package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It sorts a copy; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples; the epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(rank, n))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the tails the benchmark may report, highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 80, 75}

// highestTail returns the highest percentile of tailPercentiles that
// still has at least ten samples beyond it in a sample of n (the
// choosing-metrics rule), or 50 when no tail has.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spreads
// compare prints are the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func toMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
