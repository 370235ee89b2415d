package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the middle value, or the mean of
// the two middle values of an even-sized sample. NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; NaN for an empty sample.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// harmonicMean is len(xs) divided by the sum of 1/x. For rates of
// iterations that each do the same work it is the total work over the
// total time. NaN for an empty sample.
func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var inv float64
	for _, x := range xs {
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) gives them (the default "exclusive"
// method), so the spread this benchmark prints is the spread the
// acceptance check computes. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailPercentiles are the percentiles a latency report may claim, lowest
// first.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, or 0 when not even the median does.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p percent of the sample at or below it. With n samples and
// p = highestPercentile(n), at least ten samples lie above it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	return s[max(0, min(k, len(s))-1)]
}
