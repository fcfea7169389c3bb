package main

import (
	"math/rand"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// ramp returns the samples 1..n in shuffled order, so the value at rank k
// is k.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestTailRuleKnownCounts(t *testing.T) {
	for _, tc := range []struct {
		n        int
		pct      float64
		tail     float64
		resolved bool
	}{
		{10000, 99.9, 9990, true}, // rank 9990, 10 beyond
		{1000, 99, 990, true},     // p99.9 has 1 beyond
		{200, 95, 190, true},      // p99 has 2 beyond
		{100, 90, 90, true},       // p95 has 5 beyond
		{40, 75, 30, true},        // p90 has 4 beyond
		{20, 50, 10, true},        // p75 has 5 beyond
		{19, 50, 10, false},       // even p50 has only 9 beyond
		{1, 50, 1, false},
	} {
		d := summarize(ramp(tc.n))
		if d.TailPct != tc.pct || d.Tail != tc.tail || d.N != tc.n {
			t.Errorf("n=%d: tail %v at p%v (n=%d), want %v at p%v", tc.n, d.Tail, d.TailPct, d.N, tc.tail, tc.pct)
		}
		if beyond := tc.n - int(d.Tail); tc.resolved && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
}

// TestTailRuleIsTheHighestQualifyingPercentile checks the rule on every
// sample count: the reported percentile has at least minBeyond samples
// ranked above it, and the next higher candidate does not.
func TestTailRuleIsTheHighestQualifyingPercentile(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		d := summarize(ramp(n))
		i := 0
		for tailPercentiles[i] != d.TailPct {
			i++
		}
		qualifies := n-rankOf(n, d.TailPct) >= minBeyond
		if !qualifies && d.TailPct != 50 {
			t.Fatalf("n=%d: p%v reported with %d beyond", n, d.TailPct, n-rankOf(n, d.TailPct))
		}
		if qualifies && d.Tail != float64(rankOf(n, d.TailPct)) {
			t.Fatalf("n=%d: tail %v is not the p%v sample", n, d.Tail, d.TailPct)
		}
		if i > 0 && n-rankOf(n, tailPercentiles[i-1]) >= minBeyond {
			t.Fatalf("n=%d: p%v qualifies but p%v was reported", n, tailPercentiles[i-1], d.TailPct)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("summarize(nil) = %+v, want zero", d)
	}
}
