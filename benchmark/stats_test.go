package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(v, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := quantile(v, 1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); !near(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
	if v[0] != 5 {
		t.Error("quantile reordered its argument")
	}
}

// The reported value of a metric is the median over rounds of the
// per-round value: two rounds that hit a slow patch do not move it.
func TestMedianOfRoundsIgnoresTwoBadRounds(t *testing.T) {
	rounds := []float64{100, 101, 12, 99, 8}
	if got := median(rounds); got != 99 {
		t.Errorf("median of rounds = %v, want 99", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance procedure uses.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	q1, q3 = quartiles([]float64{7})
	if q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
	if got := spread(v); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9},
		{199, 0.9}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}
