package main

import "testing"

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's min(xs), statistics.quantiles(xs, n=4),
	// statistics.median(xs) and max(xs).
	cases := []struct {
		xs   []float64
		want summary
	}{
		{[]float64{7}, summary{7, 7, 7, 7, 7, 1}},
		{[]float64{1, 2, 3}, summary{1, 1, 2, 3, 3, 3}},
		{[]float64{5, 1, 4, 2, 3}, summary{1, 1.5, 3, 4.5, 5, 5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{1, 2.75, 5.5, 8.25, 10, 10}},
		{[]float64{2, 1}, summary{1, 0.75, 1.5, 2.25, 2, 2}},
	}
	for _, c := range cases {
		if s := summarize(c.xs); s != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, s, c.want)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v, want n 0", s)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // 0 means none
	}{
		{0, 0}, {10, 0}, {19, 0},
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != (c.want != 0) || p != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g", c.n, p, ok, c.want)
		}
	}
}
