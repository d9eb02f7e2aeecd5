package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{12, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestGatedTailIsP95UnlessUnsupported(t *testing.T) {
	if got := gatedTail(50000); got != 95 {
		t.Errorf("gatedTail(50000) = %g: the gated tail must not drift upward with sample count", got)
	}
	if got := gatedTail(150); got != 90 {
		t.Errorf("gatedTail(150) = %g, want 90", got)
	}
	if got := gatedTail(12); got != 50 {
		t.Errorf("gatedTail(12) = %g, want 50", got)
	}
}

func TestQuantileAndSummary(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	s := summarize(xs)
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 5 {
		t.Error("summarize sorted its argument in place")
	}
	if got := quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("interpolated median = %g, want 15", got)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	if got := worseBy("higher", 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100→90 is worse by %g, want 0.10", got)
	}
	if got := worseBy("lower", 100, 90); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("latency 100→90 is worse by %g, want -0.10", got)
	}
	if got := worseBy("lower", 100, 112); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("latency 100→112 is worse by %g, want 0.12", got)
	}
}
