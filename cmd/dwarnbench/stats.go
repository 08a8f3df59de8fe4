package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, which must be sorted ascending; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps exact products (99.9% of 10000) from rounding up.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentiles are the percentiles a timing is reported at, lowest
// first.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest reported percentile that still
// has at least ten samples beyond it among n samples, and how many are
// beyond it; ok is false when even the median has fewer.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, q := range tailPercentiles {
		if b := n - rank(q, n); b >= 10 {
			p, beyond, ok = q, b, true
		}
	}
	return p, beyond, ok
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the three cut points that split xs into four equal
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method). One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure bounds are judged against.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
