package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between closest ranks. It returns 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile; medianOfRounds of the issue is exactly this
// applied to the per-round values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// what the acceptance procedure uses for the run-to-run spread. With fewer
// than two values both quartiles are the single value (or 0).
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := sorted(v)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, the
// steadiness figure the acceptance procedure compares with a bound.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// tailPercentiles are the candidates tailPercentile picks from.
var tailPercentiles = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it; 0.5 when even the median does not.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is 9.999… in floating point
			best = p
		}
	}
	return best
}

// ratio is a/b, or 0 when b is 0: per-layer metrics of a layer the
// workload never entered read as zero work, not as a division error.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
