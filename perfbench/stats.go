package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it as a tail: fewer, and the figure is one outlier.
const tailMinBeyond = 10

// tailPercentiles is the ladder the tail is chosen from, highest first.
var tailPercentiles = func() []float64 {
	ps := []float64{99.99, 99.9}
	for p := 99.0; p >= 50; p-- {
		ps = append(ps, p)
	}
	return ps
}()

// tail is a latency tail: the value at the highest percentile that still
// has at least tailMinBeyond samples beyond it, with the sample count that
// supports it.
type tail struct {
	Value   float64 // the percentile's value
	Pct     float64 // which percentile (0 when no percentile qualifies)
	Samples int     // how many samples it was taken from
}

// tailOf applies the tail rule to xs by nearest rank: the p-th percentile
// is the ceil(p/100·n)-th smallest sample, and the samples beyond it are
// the ones ranked after it. With too few samples for even the median to
// qualify it returns Pct 0 and Value 0.
func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{Samples: n}
	if n == 0 {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		// The epsilon keeps float error (99.9·1000/100 = 999.0000000000001)
		// from pushing an exact rank up by one.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailMinBeyond {
			t.Value, t.Pct = s[rank-1], p
			return t
		}
	}
	return t
}
