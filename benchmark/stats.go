package main

import (
	"math"
	"sort"
)

// median returns the middle of v (the mean of the middle two for an even
// count) and 0 for an empty slice.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics, 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// relDiff is (b-a)/a: how much worse b is than a for a lower-is-better
// metric.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
