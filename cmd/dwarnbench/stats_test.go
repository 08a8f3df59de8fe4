package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
}

// The tail rule: report the highest percentile that still has at least
// ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{9, 0, 0, false},
		{19, 0, 0, false},
		{20, 50, 10, true},
		{99, 50, 49, true},
		{100, 90, 10, true},
		{999, 90, 99, true},
		{1000, 99, 10, true},
		{6000, 99, 60, true},
		{10000, 99.9, 10, true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tail(%d) = p%g, %d beyond, %v; want p%g, %d beyond, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

// Reference values from Python: statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{10, 12, 11, 15, 9, 30, 10}, [3]float64{10, 11, 15}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestSpreadAndMedian(t *testing.T) {
	xs := []float64{100, 102, 98, 101, 99}
	if got := median(xs); got != 100 {
		t.Errorf("median = %g, want 100", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	// Python: quantiles([98,99,100,101,102], n=4) = [98.5, 100, 101.5].
	if got := spread(xs); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("spread = %g, want 0.03", got)
	}
}
