package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {95, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{700, 98, true}, // p99 leaves 7 beyond, p98 leaves 14
		{10_000, 99.9, true},
		{1000, 99, true}, // p99.9 leaves 1, p99 leaves 10
		{163, 90, true},  // p95 leaves 8, p90 leaves 16
		{40, 75, true},   // p90 leaves 4, p75 leaves 10
		{20, 50, true},   // p50 leaves exactly 10
		{19, 0, false},   // even the median leaves only 9
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-nearestRank(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves fewer than ten samples beyond", c.n, p)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestMedianQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10, 12, 11, 13, 9, 30, 10.5}, 10, 11, 13},
	} {
		q1, q3 := quartiles(c.xs)
		med := median(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("%v: q1, median, q3 = %g, %g, %g; want %g, %g, %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %g, want 0", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
