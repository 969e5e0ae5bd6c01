package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counters, gauges, and histograms are the per-series handles of the
// labeled families in labels.go, which live in a Registry keyed by family
// name. Handles are cheap to hold and every method is nil-receiver-safe
// (a nil registry hands out nil families, whose series are nil
// instruments).

// Counter is a monotonically increasing uint64 metric (lint:nilsafe:
// every exported method tolerates a nil receiver).
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric (lint:nilsafe: every exported
// method tolerates a nil receiver).
type Gauge struct {
	// win is the optional trailing-window ring (set only by windowed
	// GaugeVec construction; nil otherwise). The pointer is immutable;
	// the ring's state is guarded by Gauge.mu.
	win *gaugeWindows

	// bits holds the last value as float64 bits, so an unwindowed gauge
	// sets and reads with one atomic — several gauges (queue depth most
	// of all) are set inside admission critical sections, where a mutex
	// acquisition per queue mutation is pure serialized overhead.
	bits atomic.Uint64

	// mu guards the window ring's state only.
	mu sync.Mutex
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	if g.win != nil {
		g.mu.Lock()
		g.win.set(windowClock(), v)
		g.mu.Unlock()
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative-style buckets: an
// observation v lands in the first bucket whose upper bound is >= v
// (Prometheus "le" semantics), or in the implicit +Inf overflow bucket.
// lint:nilsafe: every exported method tolerates a nil receiver.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit; immutable
	// win is the optional trailing-window ring (set only by windowed
	// HistogramVec construction; nil otherwise). The pointer is
	// immutable; the ring's state is guarded by Histogram.mu.
	win *histWindows

	mu sync.Mutex
	// counts, sum, and count are guarded by Histogram.mu.
	counts []uint64 // len(bounds)+1, last is +Inf
	sum    float64
	count  uint64
	// liveCache memoizes the merged trailing-window view for the
	// sub-window liveCacheIdx, guarded by Histogram.mu — LiveQuantile
	// callers on completion paths pay the merge-and-sort at most once
	// per window rotation, not per observation. liveCacheCount is the
	// cumulative observation count at cache build; while the window is
	// still filling the cache also refreshes on count growth, so a
	// quantile snapshotted off the first few samples cannot go stale for
	// a whole rotation (the p99-outlier retention predicate would sit on
	// it for up to a full sub-window otherwise).
	liveCache      *WindowData
	liveCacheIdx   int64
	liveCacheCount uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	if h.win != nil {
		h.win.observe(windowClock(), i, v)
	}
	h.mu.Unlock()
}

// Window returns the trailing-window view of a windowed histogram, or
// nil when the histogram is unwindowed (or the receiver nil). The merge
// is computed fresh — use LiveQuantile on hot paths.
func (h *Histogram) Window() *WindowData {
	if h == nil || h.win == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.win.merge(windowClock(), h.bounds)
}

// LiveQuantile returns the trailing-window quantile q and the window's
// observation count, memoized per sub-window rotation so it is cheap
// enough for per-request completion paths (the flight recorder's
// "latency above live p99" predicate). Returns (0, 0) on a nil or
// unwindowed histogram.
func (h *Histogram) LiveQuantile(q float64) (float64, uint64) {
	if h == nil || h.win == nil {
		return 0, 0
	}
	nanos := windowClock()
	idx := nanos / int64(h.win.opts.Width)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.liveCache == nil || h.liveCacheIdx != idx || h.count > h.liveCacheCount+h.liveCacheCount/4 {
		h.liveCache = h.win.merge(nanos, h.bounds)
		h.liveCacheIdx = idx
		h.liveCacheCount = h.count
	}
	w := h.liveCache
	switch {
	case q <= 0.50:
		return w.P50, w.Count
	case q <= 0.90:
		return w.P90, w.Count
	case q <= 0.95:
		return w.P95, w.Count
	default:
		return w.P99, w.Count
	}
}

// HistogramData is a histogram's snapshot: per-bucket (non-cumulative)
// counts aligned with Bounds, plus the +Inf overflow in Counts[len(Bounds)].
type HistogramData struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

func (h *Histogram) snapshot() HistogramData {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramData{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Registry is a set of labeled metric families keyed by name: the first
// CounterVec/GaugeVec/HistogramVec call for a name creates the family,
// later calls return the same one, so instrumented call sites need no
// separate registration step. A name is one family of one kind. A
// registry stands on its own — the serving layer keeps one whether or
// not it is traced — and every Tracer carries one (Tracer.Registry)
// whose families its Snapshot exports. The zero *Registry (nil) hands
// out nil families (lint:nilsafe: every exported method tolerates a nil
// receiver).
type Registry struct {
	mu sync.Mutex
	// families maps a name to its one family of any kind, guarded by
	// Registry.mu.
	families map[string]family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]family{}} }

// Families snapshots every family, sorted by name, with trailing-window
// views merged as of the call (nil on a nil registry). Each family takes
// its own locks after Registry.mu; the order never inverts.
func (r *Registry) Families() []FamilyData {
	if r == nil {
		return nil
	}
	nanos := windowClock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []FamilyData
	for _, f := range r.families {
		out = append(out, f.snapshot(nanos))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
