package obs

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Labeled metric families. A Vec is a family of instruments keyed by a
// small fixed label set declared at construction (device, model, shard,
// outcome — never request IDs). With(values...) resolves a labelset to
// its per-series instrument. Where the labelset is known when the
// labeled thing comes into existence (a device is added, a model
// registered, a shard created), resolve the handle once then and observe
// through the plain *Counter/*Gauge/*Histogram, so the per-observation
// cost is identical to an unlabeled instrument: one atomic add or one
// short mutex hold, no map lookup. Where the labelset is only known at
// the event (a request's terminal outcome), call With there: the family's
// own map is the cache, and a warm With allocates nothing.
//
// The three kinds share one series map, vec. It is copy-on-write:
// With's hit path builds the lookup key in a stack buffer and does one
// atomic pointer load plus a lock-free map read, and snapshots read the
// same immutable map. Only series CREATION takes the family mutex (it
// copies the map, inserts, and republishes), which is paid once per
// labelset for the family's lifetime, so per-request callers never
// contend a lock.
//
// Cardinality is bounded by construction twice over: the label KEYS are
// fixed per family, and the number of distinct label VALUES per family
// is capped at MaxSeriesPerVec. Past the cap, With returns the family's
// shared catch-all series (every label value "_other") and counts the
// overflow, so a label-cardinality bug degrades a dashboard instead of
// growing the process without bound.

// MaxSeriesPerVec caps distinct labelsets per family; further labelsets
// collapse into the "_other" catch-all series.
const MaxSeriesPerVec = 512

// overflowLabel is the label value of a family's catch-all series.
const overflowLabel = "_other"

// appendLabelKey appends the map key of label values to dst: the values
// joined by 0x1f (unit separator), which cannot appear in sane label
// values; values containing it still only risk colliding with each
// other, not corrupting state.
func appendLabelKey(dst []byte, values []string) []byte {
	for i, s := range values {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = append(dst, s...)
	}
	return dst
}

// normalizeValues pads or truncates values to match the family's key
// count, so a miscounted With call lands on a deterministic series
// instead of panicking in a hot path.
func normalizeValues(values []string, n int) []string {
	if len(values) == n {
		return values
	}
	out := make([]string, n)
	copy(out, values)
	return out
}

// instrument is a family kind's per-series handle (*Counter, *Gauge,
// *Histogram): it fills its kind's fields of a snapshot point, with
// trailing windows merged as of nanos.
type instrument interface {
	point(p *SeriesPoint, nanos int64)
}

// vec is the labelset→series map behind every family kind. The
// exported Vec types wrap it with nil-safety and their kind's extras.
type vec[S instrument] struct {
	name, help, kind string   // immutable after construction
	keys             []string // immutable after construction
	// newSeries builds one series' instrument whole, before anything can
	// share it (windowed if the family is); immutable.
	newSeries func() S
	overflow  atomic.Uint64

	// series holds the live labelset→series map. The pointed-to map is
	// immutable: creation copies it, inserts, and stores the copy, so
	// readers never lock. mu serializes creators only.
	series atomic.Pointer[map[string]*labeled[S]]
	mu     sync.Mutex
}

// labeled is one series: its label values and its instrument.
type labeled[S instrument] struct {
	values []string
	inst   S
}

// load returns the current immutable series map (nil before the first
// series exists; a nil map reads fine).
func (v *vec[S]) load() map[string]*labeled[S] {
	if m := v.series.Load(); m != nil {
		return *m
	}
	return nil
}

// with returns the series for the given label values (one per key, in
// key order), creating it on first use, or the catch-all series once
// the family holds MaxSeriesPerVec labelsets. The hit path is lock-free
// and allocation-free: the key is built in a stack buffer, and the
// compiler indexes a map by string(bytes) without converting. Only
// series creation locks and allocates.
func (v *vec[S]) with(values []string) S {
	values = normalizeValues(values, len(v.keys))
	var buf [128]byte
	kb := appendLabelKey(buf[:0], values)
	if s := v.load()[string(kb)]; s != nil {
		return s.inst
	}
	k := string(kb)
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.load()
	if s := cur[k]; s != nil {
		return s.inst
	}
	if len(cur) >= MaxSeriesPerVec {
		v.overflow.Add(1)
		values = make([]string, len(v.keys))
		for i := range values {
			values[i] = overflowLabel
		}
		k = string(appendLabelKey(nil, values))
		if s := cur[k]; s != nil {
			return s.inst
		}
	}
	s := &labeled[S]{values: append([]string(nil), values...), inst: v.newSeries()}
	next := make(map[string]*labeled[S], len(cur)+1)
	maps.Copy(next, cur)
	next[k] = s
	v.series.Store(&next)
	return s.inst
}

// familyKind names the family's kind for a registration clash.
func (v *vec[S]) familyKind() string { return v.kind }

// snapshot captures the family, with trailing windows merged as of
// nanos. Reads the immutable series map, no family lock.
func (v *vec[S]) snapshot(nanos int64) FamilyData {
	fd := FamilyData{Name: v.name, Help: v.help, Kind: v.kind,
		Keys: append([]string(nil), v.keys...), Overflow: v.overflow.Load()}
	for _, s := range v.load() {
		p := SeriesPoint{Values: append([]string(nil), s.values...)}
		s.inst.point(&p, nanos)
		fd.Series = append(fd.Series, p)
	}
	sortSeries(fd.Series)
	return fd
}

func (c *Counter) point(p *SeriesPoint, _ int64) { p.Counter = c.Value() }

func (g *Gauge) point(p *SeriesPoint, nanos int64) {
	p.Gauge = g.Value()
	if g.win != nil {
		g.mu.Lock()
		p.GaugeWindow = g.win.merge(nanos)
		g.mu.Unlock()
	}
}

func (h *Histogram) point(p *SeriesPoint, nanos int64) {
	hd := h.snapshot()
	p.Hist = &hd
	if h.win != nil {
		h.mu.Lock()
		p.Window = h.win.merge(nanos, h.bounds)
		h.mu.Unlock()
	}
}

// CounterVec is a labeled counter family (lint:nilsafe: every exported
// method tolerates a nil receiver).
type CounterVec struct{ vec[*Counter] }

// With returns the counter for the given label values (one per key, in
// key order), creating the series on first use. Nil-safe: a nil family
// hands out a nil counter. The hit path is lock-free (one atomic load
// plus a map read); only series creation locks.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.with(values)
}

// Each calls f with every series' label values (aligned with the
// family's keys; f must not retain or modify them) and current count.
// The read is lock-free, like With's hit path; no-op on nil.
func (v *CounterVec) Each(f func(values []string, n uint64)) {
	if v == nil {
		return
	}
	for _, s := range v.load() {
		f(s.values, s.inst.Value())
	}
}

// GaugeVec is a labeled gauge family, optionally windowed (lint:nilsafe:
// every exported method tolerates a nil receiver).
type GaugeVec struct{ vec[*Gauge] }

// With returns the gauge for the given label values, creating the
// series on first use (windowed if the family is). Nil-safe; the hit
// path is lock-free.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.with(values)
}

// HistogramVec is a labeled histogram family, optionally windowed
// (lint:nilsafe: every exported method tolerates a nil receiver).
type HistogramVec struct {
	vec[*Histogram]
	bounds []float64     // ascending; immutable
	win    WindowOptions // zero value = unwindowed; immutable
}

// With returns the histogram for the given label values, creating the
// series on first use (windowed if the family is). Nil-safe; the hit
// path is lock-free.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.with(values)
}

// Window merges every series' trailing window into one view as of now —
// the family-wide live quantiles and rate. Nil on a nil or unwindowed
// family; an empty family yields a zero-count view.
func (v *HistogramVec) Window() *WindowData {
	if v == nil || !v.win.enabled() {
		return nil
	}
	nanos := windowClock()
	out := newWindowData(v.win.withDefaults(), len(v.bounds))
	var samples []float64
	for _, s := range v.load() {
		s.inst.mu.Lock()
		samples = s.inst.win.mergeInto(out, samples, nanos)
		s.inst.mu.Unlock()
	}
	out.finish(v.bounds, samples)
	return out
}

// family is one registered family of any kind.
type family interface {
	familyKind() string
	snapshot(nanos int64) FamilyData
}

// register returns the family named name, building it on first use.
// One name is one family: asking for an existing name as another kind
// panics, like a duplicate Prometheus registration, since the
// exposition would carry two TYPE lines for one name.
func register[F family](r *Registry, name, kind string, build func() F) F {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		v, ok := f.(F)
		if !ok {
			panic(fmt.Sprintf("obs: metric family %q is already registered as a %s, not a %s",
				name, f.familyKind(), kind))
		}
		return v
	}
	v := build()
	r.families[name] = v
	return v
}

// CounterVec returns the named counter family, creating it with the
// given help text and label keys on first use (later calls ignore help
// and keys; nil on a nil registry). A family with no keys has exactly
// one series, resolved by With(). Panics if name is another kind's.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return register(r, name, "counter", func() *CounterVec {
		return &CounterVec{vec[*Counter]{name: name, help: help, kind: "counter",
			keys: append([]string(nil), keys...), newSeries: func() *Counter { return new(Counter) }}}
	})
}

// GaugeVec returns the named gauge family, creating it with the given
// help text, window options (zero = unwindowed), and label keys on
// first use (nil on a nil registry). Panics if name is another kind's.
func (r *Registry) GaugeVec(name, help string, win WindowOptions, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return register(r, name, "gauge", func() *GaugeVec {
		newSeries := func() *Gauge {
			var w *gaugeWindows
			if win.enabled() {
				w = newGaugeWindows(win)
			}
			return &Gauge{win: w}
		}
		return &GaugeVec{vec[*Gauge]{name: name, help: help, kind: "gauge",
			keys: append([]string(nil), keys...), newSeries: newSeries}}
	})
}

// HistogramVec returns the named histogram family, creating it with the
// given help text, ascending bucket bounds, window options (zero =
// unwindowed), and label keys on first use (nil on a nil registry).
// Panics if name is another kind's.
func (r *Registry) HistogramVec(name, help string, bounds []float64, win WindowOptions, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return register(r, name, "histogram", func() *HistogramVec {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		newSeries := func() *Histogram {
			var w *histWindows
			if win.enabled() {
				w = newHistWindows(win, len(b)+1)
			}
			return &Histogram{bounds: b, counts: make([]uint64, len(b)+1), win: w}
		}
		return &HistogramVec{vec: vec[*Histogram]{name: name, help: help, kind: "histogram",
			keys: append([]string(nil), keys...), newSeries: newSeries}, bounds: b, win: win}
	})
}

// SeriesPoint is one labelset's state inside a FamilyData snapshot.
// Exactly the fields matching the family kind are set.
type SeriesPoint struct {
	// Values align with the family's Keys.
	Values []string
	// Counter is the count for counter families.
	Counter uint64
	// Gauge is the last value for gauge families; GaugeWindow its
	// trailing-window view when the family is windowed.
	Gauge       float64
	GaugeWindow *GaugeWindowData
	// Hist is the since-boot state for histogram families; Window the
	// trailing-window view when the family is windowed.
	Hist   *HistogramData
	Window *WindowData
}

// FamilyData is one labeled family's snapshot.
type FamilyData struct {
	Name string
	Help string
	// Kind is "counter", "gauge", or "histogram".
	Kind string
	// Keys are the family's label keys, in declaration order.
	Keys []string
	// Overflow counts With calls that fell into the catch-all series
	// because the family hit MaxSeriesPerVec.
	Overflow uint64
	// Series holds every labelset, sorted by label values.
	Series []SeriesPoint
}

// sortSeries orders points lexicographically by label values so
// snapshots and expositions are deterministic.
func sortSeries(series []SeriesPoint) {
	sort.Slice(series, func(i, j int) bool {
		a, b := series[i].Values, series[j].Values
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
