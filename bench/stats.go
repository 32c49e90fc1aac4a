package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: with fewer, the "p99" of a run is
// one or two scheduler hiccups.
const tailMinBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the linear-interpolated q-quantile of an already
// sorted sample (q in [0,1]); NaN for an empty sample.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of an unsorted sample; NaN when empty.
func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// tailPercentile picks the highest whole percentile (from 99.9, 99, 95,
// 90, 75) that still has at least tailMinBeyond samples strictly beyond
// it, and returns that percentile and its value. With fewer than
// 4*tailMinBeyond samples no tail is supported and it falls back to the
// median (pct = 50), so a short run never reports its maximum as a "p99".
func tailPercentile(xs []float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 50, math.NaN()
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		// idx is the order statistic at p; everything after it is "beyond".
		// (the epsilon keeps 99.9 % of 10000 at 9990 despite float rounding)
		idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= tailMinBeyond {
			return p, s[idx]
		}
	}
	return 50, quantileSorted(s, 0.5)
}

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the acceptance check for run-to-run spread is defined with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // quantile i/4, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || math.IsNaN(q2) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// sum of xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
