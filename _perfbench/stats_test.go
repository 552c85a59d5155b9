package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{9, 0, false},    // the median has 4 beyond it
		{20, 50, true},   // p50 has 10 beyond; p90 has 2
		{99, 50, true},   // p90 has 9 beyond
		{100, 90, true},  // p90 has 10 beyond
		{999, 90, true},  // p99 has 9 beyond
		{1000, 99, true}, // p99 has 10 beyond
		{9999, 99, true}, // p99.9 has 9 beyond
		{10000, 99.9, true},
	} {
		xs := seq(c.n)
		p, v, ok := tailPercentile(xs)
		if ok != c.wantOK || p != c.want {
			t.Errorf("n=%d: tailPercentile = p%g ok=%t, want p%g ok=%t", c.n, p, ok, c.want, c.wantOK)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g = %g has %d samples beyond it", c.n, p, v, beyond)
			}
		}
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %g", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %g", got)
	}
}
