package main

import (
	"math"
	"sort"
)

// tailRank is the highest percentile rank reported for a sample of n
// values: 0.99 when at least ten samples lie beyond it, otherwise the
// highest rank that still leaves ten beyond it, and the median for
// samples too small to leave ten beyond anything above it.
func tailRank(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - 10/float64(n)
	switch {
	case p > 0.99:
		return 0.99
	case p < 0.5:
		return 0.5
	}
	return p
}

// quantile returns the nearest-rank p-quantile of values (sorted in
// place); NaN for an empty sample.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	// The epsilon keeps a product like 0.73·37 = 27 from rounding up.
	k := int(math.Ceil(p*float64(len(values))-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(values) {
		k = len(values) - 1
	}
	return values[k]
}

// median is the 0.5 nearest-rank quantile.
func median(values []float64) float64 { return quantile(values, 0.5) }
