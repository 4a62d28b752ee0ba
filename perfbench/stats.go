package main

import (
	"math"
	"sort"
)

// nearestRank returns the q-quantile of xs by the nearest-rank rule: the
// value at 1-based rank ceil(q·n) of the sorted sample. It returns NaN on
// an empty sample, so a missing percentile can never pass for a fast one.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// beyond reports how many samples lie strictly above the q-quantile: a
// percentile is only worth reporting when at least ten samples back it.
func beyond(xs []float64, q float64) int {
	v := nearestRank(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, or 0 when there is no base to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
