package main

import (
	"math"
	"sort"
	"time"
)

// value is one reported number: the median of its slice (or repetition)
// values, their range, and how many raw samples stand behind it.
type value struct {
	V      float64
	Lo, Hi float64
	N      int64
}

// single wraps a number measured once.
func single(v float64, n int64) value { return value{V: v, Lo: v, Hi: v, N: n} }

// medianOf reports the median of vs with their range.
func medianOf(vs []float64, n int64) value {
	if len(vs) == 0 {
		return value{V: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return value{V: median(s), Lo: s[0], Hi: s[len(s)-1], N: n}
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile of a sorted slice by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// repeated calls f — one timed repetition, returning its seconds — at
// least minReps times, and then for as long as the repetitions so far have
// fit in budget.
func repeated(minReps int, budget time.Duration, f func() (float64, error)) ([]float64, error) {
	var out []float64
	var spent float64
	for len(out) < minReps || spent < budget.Seconds() {
		d, err := f()
		if err != nil {
			return out, err
		}
		out = append(out, d)
		spent += d
	}
	return out, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
