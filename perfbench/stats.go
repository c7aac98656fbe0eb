package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two unlucky samples, not a
// distribution.
const minBeyond = 10

// summary describes one metric's samples within a run.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Percentile and Beyond are set for tail figures: the percentile
	// reported and how many samples lie strictly above it.
	Percentile float64 `json:"percentile,omitempty"`
	Beyond     int     `json:"beyond,omitempty"`
}

// summarize returns the median and quartiles of xs.
func summarize(unit string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); NaN for no samples.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so figures here match the acceptance arithmetic exactly. One
// sample yields itself three times; none yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	// Python clamps the lower rank to 1..n-1 and lets delta leave 0..4,
	// extrapolating at the ends of short samples.
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the p-th percentile of xs (0 < p < 100) by linear
// interpolation between closest ranks, together with how many samples
// lie strictly above it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN(), 0
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	value = s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > value })
	return value, beyond
}

// tailSummary summarizes xs at percentile p and records whether the
// tail rule holds: at least minBeyond samples above the reported value.
// The caller fixes p per workload so one metric means the same thing
// on every run; ok is false when this run's samples cannot support it.
func tailSummary(unit string, xs []float64, p float64) (s summary, ok bool) {
	v, beyond := percentile(xs, p)
	s = summary{Unit: unit, Median: v, Q1: v, Q3: v, N: len(xs), Percentile: p, Beyond: beyond}
	return s, beyond >= minBeyond
}

// highestSupported returns the highest percentile of the ladder that
// n samples support under the tail rule (at least minBeyond samples
// above it), or 0 when even the median is unsupported.
func highestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 80, 50} {
		// n·(100−p)/100 samples lie above the p-th percentile; the
		// epsilon absorbs the rounding of 100−p.
		if float64(n)*(100-p) >= minBeyond*100-1e-6 {
			return p
		}
	}
	return 0
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
