package main

import (
	"math"
	"slices"
)

// quantile returns the p-quantile of xs (0 < p < 1) by the "exclusive"
// method of Python's statistics.quantiles: position (n+1)·p between order
// statistics, with the bracketing pair clamped to the sample (so the tails
// of a tiny sample extrapolate, exactly as Python does). One rule gives
// latency percentiles, medians and quartiles, so every spread this package
// reports matches the one its result files are judged by. xs is not
// modified.
func quantile(xs []float64, p float64) float64 {
	switch len(xs) {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := float64(len(s)+1) * p
	j := min(max(int(math.Floor(m)), 1), len(s)-1)
	return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr returns the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
