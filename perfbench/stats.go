package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs: the value at rank ceil(p/100·n) of the sorted samples. It fails
// unless at least minBeyond samples rank above it, so p90 needs at least
// 100 samples and p50 at least 20.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// minSamples is the smallest sample count for which percentile(p)
// succeeds.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for even counts).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
