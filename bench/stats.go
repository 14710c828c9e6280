package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail is the highest percentile with at least ten samples beyond it.
// Below 40 samples that percentile would sit at or near the median, so
// the tail is the maximum instead.
func tail(xs []float64) float64 {
	if len(xs) < 40 {
		return quantile(xs, 1)
	}
	return quantile(xs, 1-10/float64(len(xs)))
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

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
