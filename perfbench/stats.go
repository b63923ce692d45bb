package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles the tail helper chooses from.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie above a percentile before it
// is worth reporting: with fewer, it is just one of the largest values.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples above the nearest-rank q-quantile of n.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailPercentile returns the highest percentile of the ladder that has
// at least minBeyond samples above it, with its value. ok is false when
// not even the median qualifies.
func tailPercentile(sorted []float64) (q, v float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if beyond(len(sorted), tailLadder[i]) >= minBeyond {
			return tailLadder[i], quantile(sorted, tailLadder[i]), true
		}
	}
	return 0, 0, false
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the lower median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
