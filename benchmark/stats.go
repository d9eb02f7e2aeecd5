package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the quartiles and
// the sample count behind them.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPerMille are the candidates for a reported tail, highest first, in
// tenths of a percent so that the sample arithmetic stays whole.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest percentile that still has at least ten
// of the n samples beyond it; with too few samples for any, the median is
// the only honest figure.
func tailPercentile(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// gatedTail is the percentile latency_tail_ms reports: p95, unless the run
// has too few samples to support it.
func gatedTail(n int) float64 { return math.Min(95, tailPercentile(n)) }

// worseBy returns by what share of a the value b is worse, given the
// metric's direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
