package main

import (
	"fmt"
	"sort"
)

// summary is a sample's extremes, median, quartiles and size.
type summary struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// summarize returns the extremes, median and quartiles of xs. The quartiles
// follow Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// the spread printed here is the spread a Python reader of the results
// computes.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Min: s[0], Q1: s[0], Median: s[0], Q3: s[0], Max: s[0], N: 1}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Min: s[0], Q1: q[0], Median: med, Q3: q[2], Max: s[n-1], N: n}
}

// tailPercentiles are the percentiles, in per mille, a report may name as
// its tail.
var tailPercentiles = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest reportable percentile that has at least
// ten of n samples beyond it; ok is false when n is too small for any.
func tailPercentile(n int) (pct float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		pm := tailPercentiles[i]
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// tailNote says which tail percentile n samples support.
func tailNote(n int) string {
	if p, ok := tailPercentile(n); ok {
		return fmt.Sprintf("n=%d supports a tail percentile up to p%g", n, p)
	}
	return fmt.Sprintf("n=%d is too few for a tail percentile (p50 needs 20 samples, ten beyond it)", n)
}
