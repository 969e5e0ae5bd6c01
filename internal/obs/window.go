package obs

import (
	"sort"
	"time"
)

// Windowed aggregation. A long-running server's since-boot totals stop
// being informative within minutes: the cumulative p99 of a histogram
// that has absorbed a million observations barely moves when the last
// ten seconds degrade. Windowed instruments therefore keep a ring of N
// rotating sub-windows (default 10 × 1s) behind the cumulative state:
// each observation lands both in the since-boot totals and in the
// current sub-window, and a snapshot merges the trailing ring into live
// quantiles, a live rate, and live gauge extrema.
//
// Rotation is driven by the observation clock itself — there is no
// background goroutine. Every Observe/Set computes its absolute
// sub-window index (nanos / width); when the index advances, the slots
// between the old and new index are cleared before the observation
// lands. A snapshot merges only slots whose index is within the
// trailing N of the *current* index at snapshot time, so a window that
// went quiet ages out even though nothing observed into it.
//
// Quantiles are exact, not bucket-interpolated, as long as no
// sub-window overflowed its raw-sample reservoir: each sub-window keeps
// up to SampleCap raw values alongside its bucket counts, and the merge
// sorts the concatenated samples (WindowData.Exact reports whether that
// path was taken). On reservoir overflow the merge falls back to the
// bucket counts — the quantile becomes the upper bound of the bucket
// holding the rank, which is the usual Prometheus-side approximation.

// Window defaults.
const (
	// DefaultSubWindows is the ring length when WindowOptions.SubWindows
	// is 0: with DefaultWindowWidth this makes a 10-second trailing view.
	DefaultSubWindows = 10
	// DefaultWindowWidth is the sub-window width when WindowOptions.Width
	// is 0.
	DefaultWindowWidth = time.Second
	// DefaultWindowSampleCap bounds each sub-window's raw-sample
	// reservoir when WindowOptions.SampleCap is 0. 4096 samples × 10
	// windows × 8 bytes ≈ 320 KB per windowed series at full load —
	// bounded, and big enough that exact quantiles survive thousands of
	// observations per second per window.
	DefaultWindowSampleCap = 4096
)

// WindowOptions configure the trailing-window ring of a windowed
// instrument. The zero value on a Vec constructor means "no windowing";
// a non-zero value fills unset fields with the defaults above.
type WindowOptions struct {
	// SubWindows is the ring length N; 0 means DefaultSubWindows.
	SubWindows int
	// Width is one sub-window's span; 0 means DefaultWindowWidth.
	Width time.Duration
	// SampleCap bounds each sub-window's raw-sample reservoir (exact
	// quantiles need the raw values); 0 means DefaultWindowSampleCap.
	SampleCap int
}

// enabled reports whether the options request windowing at all.
func (w WindowOptions) enabled() bool {
	return w.SubWindows != 0 || w.Width != 0 || w.SampleCap != 0
}

// withDefaults fills unset fields.
func (w WindowOptions) withDefaults() WindowOptions {
	if w.SubWindows <= 0 {
		w.SubWindows = DefaultSubWindows
	}
	if w.Width <= 0 {
		w.Width = DefaultWindowWidth
	}
	if w.SampleCap <= 0 {
		w.SampleCap = DefaultWindowSampleCap
	}
	return w
}

// windowClock is the nanosecond clock windowed instruments rotate on.
// Package-level and swappable so the rotation tests can drive window
// boundaries deterministically; production code never touches it.
var windowClock = func() int64 { return time.Now().UnixNano() }

// histSubWindow is one sub-window of a windowed histogram. All fields
// are guarded by Histogram.mu (the owning histogram's mutex).
type histSubWindow struct {
	idx       int64 // absolute sub-window index this slot holds; -1 empty
	counts    []uint64
	count     uint64
	sum       float64
	samples   []float64
	truncated bool // the raw-sample reservoir overflowed SampleCap
}

// histWindows is the rotating ring behind a windowed histogram, guarded
// by Histogram.mu.
type histWindows struct {
	opts WindowOptions
	wins []histSubWindow
}

func newHistWindows(opts WindowOptions, buckets int) *histWindows {
	opts = opts.withDefaults()
	wins := make([]histSubWindow, opts.SubWindows)
	for i := range wins {
		wins[i] = histSubWindow{idx: -1, counts: make([]uint64, buckets)}
	}
	return &histWindows{opts: opts, wins: wins}
}

// rotate returns the ring slot of the sub-window holding nanos, cleared
// first if it still holds an older sub-window; slots it skips hold stale
// indices, which merges leave out. Runs with Histogram.mu held.
func (hw *histWindows) rotate(nanos int64) *histSubWindow {
	idx := nanos / int64(hw.opts.Width)
	w := &hw.wins[idx%int64(len(hw.wins))]
	if w.idx != idx {
		for i := range w.counts {
			w.counts[i] = 0
		}
		w.count, w.sum = 0, 0
		w.samples = w.samples[:0]
		w.truncated = false
		w.idx = idx
	}
	return w
}

// observe lands one sample in the current sub-window. Runs with
// Histogram.mu held.
func (hw *histWindows) observe(nanos int64, bucket int, v float64) {
	w := hw.rotate(nanos)
	w.counts[bucket]++
	w.count++
	w.sum += v
	if len(w.samples) < hw.opts.SampleCap {
		w.samples = append(w.samples, v)
	} else {
		w.truncated = true
	}
}

// WindowData is the merged trailing-window view of a windowed
// histogram: live quantiles, rate, and the merged bucket counts
// (aligned with the owning HistogramData.Bounds, +Inf last).
type WindowData struct {
	// SubWindows and Width declare the window shape; the trailing view
	// spans SubWindows × Width.
	SubWindows int
	Width      time.Duration
	// Count and Sum cover the trailing window only.
	Count uint64
	Sum   float64
	// RatePerSec is Count over the trailing span — the live event rate
	// (RPS for a request-latency histogram).
	RatePerSec float64
	// P50/P90/P95/P99 are the trailing-window quantiles. Exact reports
	// whether they came from the raw-sample merge (true) or the bucket
	// fallback after reservoir overflow (false). All zero when Count is 0.
	P50, P90, P95, P99 float64
	Exact              bool
	// Counts are the merged per-bucket counts, aligned with the owning
	// histogram's Bounds plus the +Inf overflow bucket.
	Counts []uint64
}

// newWindowData starts an empty trailing-window view of the given shape
// over buckets+1 merged bucket counts.
func newWindowData(opts WindowOptions, buckets int) *WindowData {
	return &WindowData{
		SubWindows: opts.SubWindows,
		Width:      opts.Width,
		Counts:     make([]uint64, buckets+1),
		Exact:      true,
	}
}

// merge builds the trailing-window view as of nanos. Runs with
// Histogram.mu held.
func (hw *histWindows) merge(nanos int64, bounds []float64) *WindowData {
	out := newWindowData(hw.opts, len(bounds))
	out.finish(bounds, hw.mergeInto(out, nil, nanos))
	return out
}

// mergeInto adds the sub-windows trailing nanos into out's counts and
// appends their raw samples, returning the grown slice; finish turns the
// accumulation into quantiles. Merging several rings of the same shape
// into one view is how a family-wide window is built. Runs with
// Histogram.mu held.
func (hw *histWindows) mergeInto(out *WindowData, samples []float64, nanos int64) []float64 {
	cur := nanos / int64(hw.opts.Width)
	oldest := cur - int64(hw.opts.SubWindows) + 1
	for i := range hw.wins {
		w := &hw.wins[i]
		if w.idx < oldest || w.idx > cur {
			continue
		}
		out.Count += w.count
		out.Sum += w.sum
		for b, c := range w.counts {
			out.Counts[b] += c
		}
		samples = append(samples, w.samples...)
		if w.truncated {
			out.Exact = false
		}
	}
	return samples
}

// finish computes the rate and quantiles of an accumulated view: exact
// from the raw samples when no sub-window overflowed its reservoir, else
// from the merged bucket counts.
func (out *WindowData) finish(bounds, samples []float64) {
	span := time.Duration(out.SubWindows) * out.Width
	out.RatePerSec = float64(out.Count) / span.Seconds()
	if out.Count == 0 {
		out.Exact = true
		return
	}
	quantile := func(q float64) float64 { return bucketQuantile(bounds, out.Counts, out.Count, q) }
	if out.Exact {
		sort.Float64s(samples)
		quantile = func(q float64) float64 { return quantileSorted(samples, q) }
	}
	out.P50, out.P90, out.P95, out.P99 = quantile(0.50), quantile(0.90), quantile(0.95), quantile(0.99)
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// bucketQuantile approximates a quantile from merged le-bucket counts:
// the upper bound of the bucket holding the rank (the last finite bound
// for ranks landing in the +Inf overflow bucket).
func bucketQuantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// gaugeSubWindow is one sub-window of a windowed gauge. All fields are
// guarded by Gauge.mu.
type gaugeSubWindow struct {
	idx  int64 // absolute sub-window index; -1 empty
	last float64
	max  float64
	set  bool
}

// gaugeWindows is the rotating ring behind a windowed gauge, guarded by
// Gauge.mu.
type gaugeWindows struct {
	opts WindowOptions
	wins []gaugeSubWindow
}

func newGaugeWindows(opts WindowOptions) *gaugeWindows {
	opts = opts.withDefaults()
	wins := make([]gaugeSubWindow, opts.SubWindows)
	for i := range wins {
		wins[i] = gaugeSubWindow{idx: -1}
	}
	return &gaugeWindows{opts: opts, wins: wins}
}

// set records one gauge write into the current sub-window. Runs with
// Gauge.mu held.
func (gw *gaugeWindows) set(nanos int64, v float64) {
	idx := nanos / int64(gw.opts.Width)
	w := &gw.wins[idx%int64(len(gw.wins))]
	if w.idx != idx {
		*w = gaugeSubWindow{idx: idx}
	}
	w.last = v
	if !w.set || v > w.max {
		w.max = v
	}
	w.set = true
}

// GaugeWindowData is the merged trailing-window view of a windowed
// gauge: the maximum value written in the trailing window (occupancy
// high-water over the last N×Width) and whether anything was written.
type GaugeWindowData struct {
	SubWindows int
	Width      time.Duration
	// Max is the largest value set in the trailing window; Observed
	// reports whether any write landed there (Max is 0 otherwise).
	Max      float64
	Observed bool
}

// merge builds the trailing view as of nanos. Runs with Gauge.mu held.
func (gw *gaugeWindows) merge(nanos int64) *GaugeWindowData {
	out := &GaugeWindowData{SubWindows: gw.opts.SubWindows, Width: gw.opts.Width}
	cur := nanos / int64(gw.opts.Width)
	oldest := cur - int64(gw.opts.SubWindows) + 1
	for i := range gw.wins {
		w := &gw.wins[i]
		if !w.set || w.idx < oldest || w.idx > cur {
			continue
		}
		if !out.Observed || w.max > out.Max {
			out.Max = w.max
		}
		out.Observed = true
	}
	return out
}
