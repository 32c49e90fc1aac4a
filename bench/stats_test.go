package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; below forty samples there is none and the median stands in.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct, at float64
	}{
		{5, 50, 3},
		{39, 50, 20},
		{40, 75, 30},
		{99, 75, 75},
		{100, 90, 90},
		{199, 90, 180},
		{200, 95, 190},
		{1000, 99, 990},
		{9999, 99, 9900},
		{10000, 99.9, 9990},
	} {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.at {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", c.n, pct, v, c.pct, c.at)
		}
		if beyond := float64(c.n) - v; pct != 50 && beyond < tailMinBeyond {
			t.Errorf("n=%d: p%g has only %g samples beyond it", c.n, pct, beyond)
		}
	}
	if _, v := tailPercentile(nil); !math.IsNaN(v) {
		t.Errorf("empty sample: got %g, want NaN", v)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the acceptance check computes spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: got %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("got %g %g %g, want 1.25 3.5 5.75", q1, q2, q3)
	}
	if got, want := spread(seq(10)), 5.5/5.5; got != want {
		t.Errorf("spread: got %g, want %g", got, want)
	}
}
