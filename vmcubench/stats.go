package main

import (
	"math"
	"sort"

	"github.com/vmcu-project/vmcu/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile with at least ten of n samples
// beyond it, capped at p90 and floored at the median. Beyond p90 the
// floods read host stalls, not the server: on a shared 2-core host the
// p99 of one 1-s window swings between 0.3 and 3 ms within a run.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.9, q))
}

// supports reports whether q has at least ten of n samples beyond it.
func supports(n int, q float64) bool { return (1-q)*float64(n) >= 10-1e-9 }

// tailLatency reads the tail of per-window latency samples. When every
// non-empty window supports the tail percentile on its own (the open-loop
// floods), it is the median over windows of each window's reading, so a
// burst of host load moves one window, not the whole reading. Otherwise
// it is the whole run's. It returns the value, the percentile read, and
// the sample count.
func tailLatency(windows [][]float64) (value, q float64, n int) {
	var all []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	n = len(all)
	if n == 0 {
		return 0, 0, 0
	}
	q = tailQuantile(n)
	var perWindow []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		if !supports(len(w), q) {
			return quantile(all, q), q, n
		}
		perWindow = append(perWindow, quantile(append([]float64(nil), w...), q))
	}
	return median(perWindow), q, n
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged. It needs len(xs) >= 2.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median (0 when
// the median is 0 or there are fewer than two values).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(append([]float64(nil), xs...))
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent obs.SpanData, children []obs.SpanData) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.End - parent.Start - covered
}
