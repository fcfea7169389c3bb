package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 when there are no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the nearest-rank p-th percentile of sorted samples:
// the value at rank ceil(p/100 * n), 1-based.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

func rankOf(n int, p float64) int {
	// The epsilon keeps float rounding (99.9/100 is not exact) from
	// pushing an exact rank up by one.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must rank above a percentile before it
// may be reported as the tail.
const minBeyond = 10

// dist is a timing distribution as the benchmark reports it: the median,
// the tail, the percentile the tail stands for, and the sample count.
type dist struct {
	P50, Tail, TailPct float64
	N                  int
}

// summarize applies the tail rule: the tail is the highest candidate
// percentile with at least minBeyond samples ranked above it. With too
// few samples for even p50 to qualify, the tail is the median and TailPct
// says 50, so a reader sees that no tail was resolvable at that count.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := sortedCopy(xs)
	d := dist{P50: median(s), N: len(s), Tail: median(s), TailPct: 50}
	for _, p := range tailPercentiles {
		if len(s)-rankOf(len(s), p) >= minBeyond {
			d.Tail, d.TailPct = nearestRank(s, p), p
			break
		}
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not touch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
