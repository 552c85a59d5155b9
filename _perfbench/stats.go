package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a q share of the samples at or below it.
// It returns 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(q, n) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return sorted[r]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// slack keeps a product like 0.999*10000 that rounds up past a whole
// number from moving the rank.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailLadder is the percentile ladder tailPercentile climbs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest percentile on the ladder that has at
// least ten samples beyond it, with its value; ok is false when even the
// median has fewer than ten samples beyond it.
func tailPercentile(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	for _, pc := range tailLadder {
		if n-rank(pc/100, n) < 10 {
			break
		}
		p, v, ok = pc, quantile(sorted, pc/100), true
	}
	return p, v, ok
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

// ratio returns num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
