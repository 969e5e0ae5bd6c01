package main

import (
	"math"
	"testing"

	"github.com/vmcu-project/vmcu/internal/obs"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {40, 0.75}, {58, 1 - 10.0/58}, {80, 0.875}, {100, 0.9}, {1000000, 0.9},
	} {
		q := tailQuantile(tc.n)
		if math.Abs(q-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
		}
		// Between the floor and the cap, q is the highest percentile that
		// still has ten samples beyond it.
		if q > 0.5 && q < 0.9 {
			if beyond := (1 - q) * float64(tc.n); math.Abs(beyond-10) > 1e-9 {
				t.Errorf("n=%d: %v samples beyond p%v, want 10", tc.n, beyond, 100*q)
			}
		}
		if tc.n >= 20 && !supports(tc.n, q) {
			t.Errorf("n=%d: p%v has fewer than ten samples beyond it", tc.n, 100*q)
		}
	}
}

func TestTailLatencyMediansWindowReadings(t *testing.T) {
	window := func(scale float64) []float64 {
		w := make([]float64, 1000)
		for i := range w {
			w[i] = scale * float64(i+1)
		}
		return w
	}
	// One stalled window reads 100x worse; the median of the per-window
	// p90s ignores it where the whole run's p90 would not.
	windows := [][]float64{window(1), window(1), window(100), window(1), window(1)}
	got, q, n := tailLatency(windows)
	want := quantile(window(1), 0.9)
	if got != want || q != 0.9 || n != 5000 {
		t.Errorf("tailLatency = %v at p%v of %d, want %v at p90 of 5000", got, 100*q, n, want)
	}

	// Windows too small for the percentile fall back to the whole run.
	small := [][]float64{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, nil, {11, 12, 13, 14, 15, 16, 17, 18, 19, 20}}
	got, q, n = tailLatency(small)
	if n != 20 || q != 0.5 || got != 10.5 {
		t.Errorf("tailLatency(small) = %v at p%v of %d, want 10.5 at p50 of 20", got, 100*q, n)
	}
}

// The spread rule must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := obs.SpanData{Start: 0, End: 100}
	children := []obs.SpanData{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first
		{Start: 90, End: 120}, // runs past the parent
		{Start: 60, End: 60},
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "rps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	for _, tc := range []struct {
		sm         specMetric
		base, head []float64
		want       string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104, 105, 103, 104}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120, 121, 119, 120}, "REGRESSION"},
		{lower, steady, []float64{90, 91, 89, 90, 90, 91, 89, 90}, "better"},
		{lower, []float64{60, 140, 80, 120, 100, 70, 130, 100}, []float64{130, 121, 119, 120, 125, 121, 119, 120}, "unresolved"},
		{higher, steady, []float64{80, 81, 79, 80, 80, 81, 79, 80}, "REGRESSION"},
		{higher, steady, []float64{120, 121, 119, 120, 120, 121, 119, 120}, "better"},
	} {
		if _, got := verdict(tc.sm, tc.base, tc.head); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", tc.sm.Better, tc.base, tc.head, got, tc.want)
		}
	}
}
