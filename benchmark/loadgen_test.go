package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 250, 10*time.Second)
	b := poissonSchedule(7, 250, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if c := poissonSchedule(8, 250, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave one schedule")
	}
	if n := float64(len(a)); math.Abs(n-2500) > 5*math.Sqrt(2500) {
		t.Errorf("%g arrivals in 10 s at 250/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d is before arrival %d", i, i-1)
		}
	}
	if last := a[len(a)-1]; last >= 10*time.Second {
		t.Errorf("arrival at %v is beyond the horizon", last)
	}
	if !reflect.DeepEqual(requestOrder(7, 100), requestOrder(7, 100)) {
		t.Error("same seed gave two request orders")
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// Due at 10 ms; the generator was busy and sent at 14 ms; answer at 17 ms.
	lat, late := openTiming(10*ms, 14*ms, 17*ms)
	if lat != 7 || late != 4 {
		t.Errorf("late generator: latency %g ms lateness %g ms, want 7 and 4", lat, late)
	}
	// Sent on time (the sleep returned exactly at due): nothing to add.
	lat, late = openTiming(10*ms, 10*ms, 13*ms)
	if lat != 3 || late != 0 {
		t.Errorf("on time: latency %g ms lateness %g ms, want 3 and 0", lat, late)
	}
}

func TestFailuresCountAgainstAttempted(t *testing.T) {
	var a, b reqLog
	a.add(3, 0.1, 0, nil)
	a.add(0, 0.2, 0, errors.New("429 overloaded"))
	b.add(4, 0.3, 0, nil)
	b.add(0, 0.4, 0, errors.New("wrong answer"))
	a.merge(b)
	if a.attempted != 4 || a.failed != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2", a.attempted, a.failed)
	}
	if len(a.latMs) != 2 {
		t.Errorf("%d latency samples: a failed request must not contribute one", len(a.latMs))
	}
	if a.firstErr != "429 overloaded" {
		t.Errorf("firstErr = %q", a.firstErr)
	}
}

func TestSegmentsCutTheWindowByCompletionTime(t *testing.T) {
	// 400 answers over 4 s, 100 per second, latency = 1 ms in the first half
	// and 3 ms in the second: two slices of 200, each with its own tail.
	var lat, done []float64
	for i := 0; i < 400; i++ {
		done = append(done, float64(i)/100)
		lat = append(lat, 1+2*float64(i/200))
	}
	perS, tails, pct := segment(lat, done, 4*time.Second)
	if !reflect.DeepEqual(perS, []float64{100, 100}) || !reflect.DeepEqual(tails, []float64{1, 3}) {
		t.Errorf("perS %v tails %v", perS, tails)
	}
	if pct != 95 {
		t.Errorf("slices of 200 support p95, got p%g", pct)
	}
	// Too few answers for two slices: one slice, and a percentile it supports.
	if perS, _, pct := segment(lat[:150], done[:150], 4*time.Second); len(perS) != 1 || pct != 90 {
		t.Errorf("150 answers: %d slices at p%g, want 1 at p90", len(perS), pct)
	}
}
