package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled metric families. A Vec is a family of instruments keyed by a
// small fixed label set declared at construction (device, model, shard,
// outcome — never request IDs). With(values...) resolves a labelset to
// its per-series instrument; the intended pattern is resolve-once:
// callers look the handle up when the labeled thing comes into
// existence (a device is added, a model registered, a shard created)
// and then observe through the plain *Counter/*Gauge/*Histogram handle,
// so the per-observation cost is identical to an unlabeled instrument —
// one atomic add or one short mutex hold, no map lookup.
//
// The series map itself is copy-on-write: With's hit path is one atomic
// pointer load plus a lock-free map read, and snapshots read the same
// immutable map. Only series CREATION takes the family mutex (it copies
// the map, inserts, and republishes), which is paid once per labelset
// for the family's lifetime — so even a caller that ignores the
// resolve-once advice never contends a reader-writer lock at
// per-request rates.
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

// labelKey joins label values into a map key. 0x1f (unit separator)
// cannot appear in sane label values; values containing it still only
// risk colliding with each other, not corrupting state.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

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

// CounterVec is a labeled counter family (lint:nilsafe: every exported
// method tolerates a nil receiver).
type CounterVec struct {
	name, help string   // immutable after construction
	keys       []string // immutable after construction
	overflow   atomic.Uint64

	// series holds the live labelset→series map. The pointed-to map is
	// immutable: creation copies it, inserts, and stores the copy, so
	// readers never lock. mu serializes creators only.
	series atomic.Pointer[map[string]*counterSeries]
	mu     sync.Mutex
}

type counterSeries struct {
	values []string
	c      Counter
}

// load returns the current immutable series map (nil before the first
// series exists; a nil map reads fine).
func (v *CounterVec) load() map[string]*counterSeries {
	if m := v.series.Load(); m != nil {
		return *m
	}
	return nil
}

// insertLocked republishes the series map with one more entry. Runs with
// CounterVec.mu held.
func (v *CounterVec) insertLocked(k string, s *counterSeries) {
	cur := v.load()
	next := make(map[string]*counterSeries, len(cur)+1)
	for kk, ss := range cur {
		next[kk] = ss
	}
	next[k] = s
	v.series.Store(&next)
}

// With returns the counter for the given label values (one per key, in
// key order), creating the series on first use. Nil-safe: a nil family
// hands out a nil counter. The hit path is lock-free (one atomic load
// plus a map read); only series creation locks.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	values = normalizeValues(values, len(v.keys))
	k := labelKey(values)
	if s := v.load()[k]; s != nil {
		return &s.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.load()[k]; s != nil {
		return &s.c
	}
	if len(v.load()) >= MaxSeriesPerVec {
		v.overflow.Add(1)
		return v.otherLocked()
	}
	s := &counterSeries{values: append([]string(nil), values...)}
	v.insertLocked(k, s)
	return &s.c
}

// otherLocked returns (creating if needed) the catch-all series' counter.
// Runs with CounterVec.mu held.
func (v *CounterVec) otherLocked() *Counter {
	vals := make([]string, len(v.keys))
	for i := range vals {
		vals[i] = overflowLabel
	}
	k := labelKey(vals)
	s := v.load()[k]
	if s == nil {
		s = &counterSeries{values: vals}
		v.insertLocked(k, s)
	}
	return &s.c
}

// GaugeVec is a labeled gauge family, optionally windowed (lint:nilsafe:
// every exported method tolerates a nil receiver).
type GaugeVec struct {
	name, help string
	keys       []string
	win        WindowOptions // zero value = unwindowed; immutable
	overflow   atomic.Uint64

	// series is copy-on-write like CounterVec.series; mu serializes
	// creators only.
	series atomic.Pointer[map[string]*gaugeSeries]
	mu     sync.Mutex
}

type gaugeSeries struct {
	values []string
	g      *Gauge
}

// load returns the current immutable series map (nil is fine to read).
func (v *GaugeVec) load() map[string]*gaugeSeries {
	if m := v.series.Load(); m != nil {
		return *m
	}
	return nil
}

// insertLocked republishes the series map with one more entry. Runs with
// GaugeVec.mu held.
func (v *GaugeVec) insertLocked(k string, s *gaugeSeries) {
	cur := v.load()
	next := make(map[string]*gaugeSeries, len(cur)+1)
	for kk, ss := range cur {
		next[kk] = ss
	}
	next[k] = s
	v.series.Store(&next)
}

// With returns the gauge for the given label values, creating the
// series on first use (windowed if the family is). Nil-safe; the hit
// path is lock-free.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	values = normalizeValues(values, len(v.keys))
	k := labelKey(values)
	if s := v.load()[k]; s != nil {
		return s.g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.load()[k]; s != nil {
		return s.g
	}
	if len(v.load()) >= MaxSeriesPerVec {
		v.overflow.Add(1)
		return v.otherLocked()
	}
	s := v.newSeriesLocked(values)
	v.insertLocked(k, s)
	return s.g
}

// newSeriesLocked builds one gauge series; runs with GaugeVec.mu held.
// The fresh Gauge is assembled whole before anything can share it.
func (v *GaugeVec) newSeriesLocked(values []string) *gaugeSeries {
	var win *gaugeWindows
	if v.win.enabled() {
		win = newGaugeWindows(v.win)
	}
	return &gaugeSeries{
		values: append([]string(nil), values...),
		g:      &Gauge{win: win},
	}
}

// otherLocked returns the catch-all series' gauge; runs with GaugeVec.mu
// held.
func (v *GaugeVec) otherLocked() *Gauge {
	vals := make([]string, len(v.keys))
	for i := range vals {
		vals[i] = overflowLabel
	}
	k := labelKey(vals)
	s := v.load()[k]
	if s == nil {
		s = v.newSeriesLocked(vals)
		v.insertLocked(k, s)
	}
	return s.g
}

// HistogramVec is a labeled histogram family, optionally windowed
// (lint:nilsafe: every exported method tolerates a nil receiver).
type HistogramVec struct {
	name, help string
	keys       []string
	bounds     []float64     // ascending; immutable
	win        WindowOptions // zero value = unwindowed; immutable
	overflow   atomic.Uint64

	// series is copy-on-write like CounterVec.series; mu serializes
	// creators only.
	series atomic.Pointer[map[string]*histogramSeries]
	mu     sync.Mutex
}

type histogramSeries struct {
	values []string
	h      *Histogram
}

// load returns the current immutable series map (nil is fine to read).
func (v *HistogramVec) load() map[string]*histogramSeries {
	if m := v.series.Load(); m != nil {
		return *m
	}
	return nil
}

// insertLocked republishes the series map with one more entry. Runs with
// HistogramVec.mu held.
func (v *HistogramVec) insertLocked(k string, s *histogramSeries) {
	cur := v.load()
	next := make(map[string]*histogramSeries, len(cur)+1)
	for kk, ss := range cur {
		next[kk] = ss
	}
	next[k] = s
	v.series.Store(&next)
}

// With returns the histogram for the given label values, creating the
// series on first use (windowed if the family is). Nil-safe; the hit
// path is lock-free.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	values = normalizeValues(values, len(v.keys))
	k := labelKey(values)
	if s := v.load()[k]; s != nil {
		return s.h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.load()[k]; s != nil {
		return s.h
	}
	if len(v.load()) >= MaxSeriesPerVec {
		v.overflow.Add(1)
		return v.otherLocked()
	}
	s := v.newSeriesLocked(values)
	v.insertLocked(k, s)
	return s.h
}

// newSeriesLocked builds one histogram series; runs with HistogramVec.mu
// held. The fresh Histogram is assembled whole before anything shares it.
func (v *HistogramVec) newSeriesLocked(values []string) *histogramSeries {
	var win *histWindows
	if v.win.enabled() {
		win = newHistWindows(v.win, len(v.bounds)+1)
	}
	h := &Histogram{bounds: v.bounds, counts: make([]uint64, len(v.bounds)+1), win: win}
	return &histogramSeries{values: append([]string(nil), values...), h: h}
}

// otherLocked returns the catch-all series' histogram; runs with
// HistogramVec.mu held.
func (v *HistogramVec) otherLocked() *Histogram {
	vals := make([]string, len(v.keys))
	for i := range vals {
		vals[i] = overflowLabel
	}
	k := labelKey(vals)
	s := v.load()[k]
	if s == nil {
		s = v.newSeriesLocked(vals)
		v.insertLocked(k, s)
	}
	return s.h
}

// CounterVec returns the named counter family, creating it with the
// given help text and label keys on first use (later calls ignore help
// and keys; nil on a nil registry). A family with no keys has exactly
// one series, resolved by With().
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = &CounterVec{
			name: name, help: help,
			keys: append([]string(nil), keys...),
		}
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named gauge family, creating it with the given
// help text, window options (zero = unwindowed), and label keys on
// first use (nil on a nil registry).
func (r *Registry) GaugeVec(name, help string, win WindowOptions, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = &GaugeVec{
			name: name, help: help, win: win,
			keys: append([]string(nil), keys...),
		}
		r.gaugeVecs[name] = v
	}
	return v
}

// HistogramVec returns the named histogram family, creating it with the
// given help text, ascending bucket bounds, window options (zero =
// unwindowed), and label keys on first use (nil on a nil registry).
func (r *Registry) HistogramVec(name, help string, bounds []float64, win WindowOptions, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histogramVecs[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		v = &HistogramVec{
			name: name, help: help, win: win,
			bounds: b,
			keys:   append([]string(nil), keys...),
		}
		r.histogramVecs[name] = v
	}
	return v
}

// Each calls f with every series' label values (aligned with the
// family's keys; f must not retain or modify them) and current count.
// The read is lock-free, like With's hit path; no-op on nil.
func (v *CounterVec) Each(f func(values []string, n uint64)) {
	if v == nil {
		return
	}
	for _, s := range v.load() {
		f(s.values, s.c.Value())
	}
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
		s.h.mu.Lock()
		samples = s.h.win.mergeInto(out, samples, nanos)
		s.h.mu.Unlock()
	}
	out.finish(v.bounds, samples)
	return out
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

// snapshot captures a counter family. Reads the immutable series map,
// no lock.
func (v *CounterVec) snapshot(nanos int64) FamilyData {
	if v == nil {
		return FamilyData{}
	}
	fd := FamilyData{Name: v.name, Help: v.help, Kind: "counter",
		Keys: append([]string(nil), v.keys...), Overflow: v.overflow.Load()}
	for _, s := range v.load() {
		fd.Series = append(fd.Series, SeriesPoint{
			Values:  append([]string(nil), s.values...),
			Counter: s.c.Value(),
		})
	}
	sortSeries(fd.Series)
	return fd
}

// snapshot captures a gauge family (including trailing windows as of
// nanos).
func (v *GaugeVec) snapshot(nanos int64) FamilyData {
	if v == nil {
		return FamilyData{}
	}
	fd := FamilyData{Name: v.name, Help: v.help, Kind: "gauge",
		Keys: append([]string(nil), v.keys...), Overflow: v.overflow.Load()}
	for _, s := range v.load() {
		p := SeriesPoint{
			Values: append([]string(nil), s.values...),
			Gauge:  s.g.Value(),
		}
		if s.g.win != nil {
			s.g.mu.Lock()
			p.GaugeWindow = s.g.win.merge(nanos)
			s.g.mu.Unlock()
		}
		fd.Series = append(fd.Series, p)
	}
	sortSeries(fd.Series)
	return fd
}

// snapshot captures a histogram family (including trailing windows as
// of nanos).
func (v *HistogramVec) snapshot(nanos int64) FamilyData {
	if v == nil {
		return FamilyData{}
	}
	fd := FamilyData{Name: v.name, Help: v.help, Kind: "histogram",
		Keys: append([]string(nil), v.keys...), Overflow: v.overflow.Load()}
	for _, s := range v.load() {
		hd := s.h.snapshot()
		p := SeriesPoint{
			Values: append([]string(nil), s.values...),
			Hist:   &hd,
		}
		if s.h.win != nil {
			s.h.mu.Lock()
			p.Window = s.h.win.merge(nanos, s.h.bounds)
			s.h.mu.Unlock()
		}
		fd.Series = append(fd.Series, p)
	}
	sortSeries(fd.Series)
	return fd
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
