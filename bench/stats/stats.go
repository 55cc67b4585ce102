// Package stats holds the order statistics the benchmark and its A/B
// comparator agree on: the median, the median of group medians, the tail
// percentile with exactly ten samples beyond it, and the quartiles of Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so a spread
// computed here matches one computed from the same numbers in Python.
package stats

import (
	"math"
	"slices"
)

// TailBeyond is how many samples the tail percentile leaves above it.
const TailBeyond = 10

// Median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for no samples.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// GroupMedian returns the median over groups of each group's median, or
// NaN for no groups. Where every group is equally large, as when each op
// kind runs once per pass, it estimates the median of the pooled samples
// with each group's own jitter taken out first.
func GroupMedian(groups map[string][]float64) float64 {
	meds := make([]float64, 0, len(groups))
	for _, xs := range groups {
		meds = append(meds, Median(xs))
	}
	return Median(meds)
}

// Tail returns the highest percentile with exactly TailBeyond samples above
// it, and that percentile as a quantile q = 1 - TailBeyond/N: the
// (N-TailBeyond)-th smallest sample, so p93 at N=140 and p83 at N=60. With
// TailBeyond or fewer samples no such percentile exists; Tail then returns
// the maximum with q = 1.
func Tail(xs []float64) (value, q float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 1
	}
	if n <= TailBeyond {
		return s[n-1], 1
	}
	return s[n-TailBeyond-1], 1 - float64(TailBeyond)/float64(n)
}

// Quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them. One sample is its
// own quartiles; no samples give NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance as a share of the median, the
// run-to-run noise measure regression bounds are checked against.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
