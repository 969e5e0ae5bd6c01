// Package obs is the low-overhead tracing and metrics layer threaded
// through the stack: request-lifecycle spans in the serving subsystem,
// planner/search instrumentation in netplan, and recorded device
// timelines (the pool-occupancy evolution of the paper's Figure 1) — all
// collected by one Tracer and exportable as Chrome trace_event JSON
// (chrome://tracing / Perfetto) — plus labeled metric families in a
// Registry, exportable as a Prometheus-style text exposition. Metrics do
// not need a tracer: a Registry stands alone, and a Tracer carries one
// whose families its Snapshot exports.
//
// Design constraints, in order:
//
//   - Opt-in with a no-op default. Every instrumented call site holds a
//     *Tracer that may be nil; every method on *Tracer, *Span, *Registry,
//     the families, *Counter, *Gauge, and *Histogram is
//     nil-receiver-safe and returns immediately. The disabled path is a
//     nil check and nothing else — no allocation, no atomic, no lock — so
//     instrumentation can stay threaded through hot paths permanently
//     (BenchmarkSpanNoop pins the per-call cost; the serving benchmark's
//     admit-flood vs admit-flood-ops workloads measure the end-to-end
//     tracing tax).
//   - Race-clean. A Tracer is safe for concurrent use from any number of
//     goroutines: span storage is sharded across per-shard mutexes (one
//     global span lock becomes the bottleneck at serving rates — every
//     request records ~9 lifecycle spans), the metric registry is guarded
//     by its own mutex, counters use atomics, and Span handles are owned
//     by one goroutine at a time (handoff through the caller's own
//     synchronization, exactly like any other Go value).
//   - Bounded memory. Ended spans land in a fixed-capacity ring buffer;
//     when it wraps, the oldest spans are dropped and counted
//     (Snapshot.DroppedSpans), so a long-running traced server cannot
//     grow without limit.
//
// Spans carry two clocks: wall time (Start/End, nanoseconds since the
// tracer's epoch) for host-side latency, and simulated device cycles
// (StartCycles/EndCycles) for the device timeline of executed kernels —
// the planner's per-unit spans place every kernel on the cycle axis of
// the device it ran on, which is what the exported timeline renders.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds used by the instrumented layers. Kind is an open string —
// these constants only name the conventions the exporters and the
// vmcu-trace summarizer know about.
const (
	// KindRequest is a serving request's root span; its children are the
	// KindStage spans of the lifecycle.
	KindRequest = "request"
	// KindStage is one lifecycle stage of a request: submit, queue,
	// admit, dispatch, execute, complete (plus the ledger sub-stages).
	KindStage = "stage"
	// KindUnit is one executed kernel unit of a network run (module,
	// split region, or seam), carrying device cycle counters.
	KindUnit = "unit"
	// KindPlan is planner work: a whole-network solve, a split-search
	// probe, or a Pareto candidate.
	KindPlan = "plan"
)

// Attr is one key/value attribute on a span. Exactly one of the value
// fields is meaningful, recorded by the constructor used.
type Attr struct {
	Key string
	// Kind selects the value field: "int", "float", or "str".
	Kind  string
	Int   int64
	Float float64
	Str   string
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: "int", Int: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Kind: "float", Float: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: "str", Str: v} }

// Value returns the attribute's value as an interface (for JSON export).
func (a Attr) Value() any {
	switch a.Kind {
	case "int":
		return a.Int
	case "float":
		return a.Float
	default:
		return a.Str
	}
}

// SpanData is one recorded span: the plain-data form stored in the ring
// buffer and returned by Snapshot.
type SpanData struct {
	// ID is the tracer-unique span identifier; Parent is the enclosing
	// span's ID (0 for roots). Trace groups every span of one logical
	// operation (a serving request, a planner call); for roots started
	// with Start it equals ID.
	ID, Parent, Trace uint64
	// Name describes the operation ("request", "queue", "B4(fused)");
	// Kind classifies it (KindRequest, KindStage, KindUnit, KindPlan).
	Name, Kind string
	// Device names the simulated device the span executed on ("" when
	// the span is host-side only).
	Device string
	// Start and End are wall-clock nanoseconds since the tracer's epoch.
	Start, End int64
	// StartCycles and EndCycles place the span on the simulated device
	// cycle axis (both zero for host-side spans).
	StartCycles, EndCycles float64
	// Attrs carry the span's key/value attributes (device counters,
	// model names, byte sizes).
	Attrs []Attr
}

// Series is one recorded sample timeline — e.g. the live-pool-byte
// occupancy samples behind eval.RenderMemoryProfile — exported as Chrome
// counter events so the Figure-1 curve is a real artifact.
type Series struct {
	Name    string
	Device  string
	Unit    string
	Samples []int
	// Start is the wall timestamp of the first sample and Step the
	// spacing between consecutive samples, both in nanoseconds since
	// the tracer's epoch — the declared time base that places the
	// counter curve on the same axis as the recorded spans.
	// RecordSeriesSpan spreads samples across a real span's interval;
	// RecordSeries anchors at the call instant with a 1µs step.
	Start, Step int64
}

// DefaultSpanCapacity is the ring-buffer bound used when Options.Capacity
// is 0: enough for tens of thousands of requests' lifecycle spans while
// keeping a traced server's memory flat.
const DefaultSpanCapacity = 1 << 16

// Options configure a Tracer.
type Options struct {
	// Capacity bounds the span ring buffer; 0 means DefaultSpanCapacity.
	Capacity int
}

// spanShardCount is how many independent ring shards a Tracer's span
// storage splits into. Span recording is the hottest path in the package
// — at serving saturation every request pushes ~9 lifecycle spans, so a
// single ring mutex is hammered at millions of acquisitions per second
// from every core and becomes the dominant serving cost. Sequential span
// IDs distribute round-robin across shards, so with per-shard capacity
// cap/N the union of the shard rings holds exactly the most recent cap
// spans — the same retention a single global FIFO ring would give.
const spanShardCount = 16

// spanShard is one independent slice of the span ring.
type spanShard struct {
	mu sync.Mutex
	// spans is this shard's ring storage (len == cap once full), guarded
	// by spanShard.mu.
	spans []SpanData
	cap   int // shard capacity; immutable after New
	// next is the ring write index, guarded by spanShard.mu.
	next int
	// total counts spans ever recorded into this shard, guarded by
	// spanShard.mu.
	total uint64
	// pad keeps adjacent shards off each other's cache line — the whole
	// point of sharding is that cores stop ping-ponging one hot line.
	_ [64]byte
}

// Tracer collects spans, metrics, and series. The zero *Tracer (nil) is
// the no-op tracer: every method is safe and free on it (lint:nilsafe —
// vmcu-lint's nilnoop analyzer enforces the guard on every exported
// method).
type Tracer struct {
	epoch  time.Time // immutable after New
	nextID atomic.Uint64

	// shards is the sharded span ring (slice header and per-shard caps
	// immutable after New; each shard's state guarded by its own mutex).
	shards []spanShard
	cap    int // total ring capacity; immutable after New

	// flight is the optional tail-sampling recorder; swapped atomically
	// so the record hot path reads it without a lock.
	flight atomic.Pointer[flightRecorder]

	// sampler is the optional head sampler (sample.go); swapped
	// atomically so the admission-time decision reads it without a lock.
	sampler atomic.Pointer[sampler]

	// reg holds the tracer's metric families; the pointer is immutable
	// after New and the registry has its own lock.
	reg *Registry

	mu sync.Mutex
	// series is guarded by Tracer.mu.
	series []Series
}

// New returns an enabled Tracer.
func New(opts Options) *Tracer {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	nshards := spanShardCount
	if capacity < nshards {
		nshards = capacity
	}
	t := &Tracer{
		epoch:  time.Now(),
		cap:    capacity,
		shards: make([]spanShard, nshards),
		reg:    NewRegistry(),
	}
	// Distribute the capacity exactly: the first capacity%nshards shards
	// take one extra slot, so the shard caps always sum to capacity.
	base, extra := capacity/nshards, capacity%nshards
	for i := range t.shards {
		t.shards[i].cap = base
		if i < extra {
			t.shards[i].cap++
		}
	}
	return t
}

// Enabled reports whether the tracer records anything (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Registry returns the tracer's metric registry, whose families Snapshot
// exports (nil on a nil tracer, which hands out nil families).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// now returns wall nanoseconds since the tracer's epoch.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Now returns wall nanoseconds since the tracer's epoch (0 on nil) — the
// clock Emit call sites use to build SpanData timestamps consistent with
// Start/End-recorded spans.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// Span is an in-flight span handle. A nil *Span (from a nil tracer) is
// safe to use; End on it does nothing (lint:nilsafe — enforced by the
// nilnoop analyzer). A Span is owned by one goroutine
// at a time — hand it across goroutines only through synchronized
// structures, like any Go value.
//
// Handles are pooled: End/EndTo recycle the handle back to the package
// pool, where another goroutine's Start may immediately reuse it. A
// span must therefore not be touched after the statement that ends it —
// the spanrelease analyzer (vmcu-lint) flags same-block use after
// End/EndTo. A double End on a stale handle before reuse is a no-op
// (release clears tr, and every method nil-guards through it).
type Span struct {
	tr   *Tracer
	data SpanData
	// attrStore is the inline backing for the first attrs (data.Attrs
	// aliases it until an append outgrows it): lifecycle spans carry ≤4
	// attributes, so the common case adds zero allocations beyond the
	// pooled handle. End/EndTo copy the attrs out (into the record or
	// the buffer's arena) before recycling, so nothing aliases attrStore
	// after release.
	attrStore [4]Attr
}

// spanPool recycles Span handles: Start draws from it, End/EndTo return
// to it, so a steady-state lifecycle span performs zero heap
// allocations. The recycling is what turns use-after-end from a style
// nit into a real bug — an ended handle may already be another
// goroutine's live span — hence the lint-enforced release discipline.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// release zeroes the handle (dropping its attr references) and returns
// it to the pool.
func (s *Span) release() {
	*s = Span{}
	spanPool.Put(s)
}

// Start opens a root span. Returns nil on a nil tracer.
func (t *Tracer) Start(name, kind string) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	s := spanPool.Get().(*Span)
	s.tr = t
	s.data = SpanData{ID: id, Trace: id, Name: name, Kind: kind, Start: t.now()}
	s.data.Attrs = s.attrStore[:0]
	return s
}

// StartChild opens a span under parent, inheriting its trace. A nil
// parent starts a root span.
func (t *Tracer) StartChild(parent *Span, name, kind string) *Span {
	if t == nil {
		return nil
	}
	s := t.Start(name, kind)
	if parent != nil {
		s.data.Parent = parent.data.ID
		s.data.Trace = parent.data.Trace
	}
	return s
}

// StartUnder opens a span under an explicit parent/trace ID pair, for
// call sites that only carry IDs across package boundaries (netplan's
// per-unit spans under a serving request's execute span).
func (t *Tracer) StartUnder(parentID, traceID uint64, name, kind string) *Span {
	if t == nil {
		return nil
	}
	s := t.Start(name, kind)
	s.data.Parent = parentID
	if traceID != 0 {
		s.data.Trace = traceID
	}
	return s
}

// ID returns the span's identifier (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.data.ID
}

// TraceID returns the span's trace identifier (0 on nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.data.Trace
}

// SetDevice names the simulated device the span executed on.
func (s *Span) SetDevice(device string) {
	if s == nil {
		return
	}
	s.data.Device = device
}

// SetCycles places the span on the simulated device cycle axis.
func (s *Span) SetCycles(start, end float64) {
	if s == nil {
		return
	}
	s.data.StartCycles, s.data.EndCycles = start, end
}

// Attr appends attributes to the span.
func (s *Span) Attr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
}

// End closes the span, records it in the tracer's ring buffer, and
// recycles the handle — the span must not be used after this call.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	s.data.End = s.tr.now()
	d := s.data
	if len(d.Attrs) > 0 {
		// The attrs alias the handle's inline store, which is about to
		// be recycled: the recorded copy needs its own backing.
		d.Attrs = append([]Attr(nil), d.Attrs...)
	} else {
		d.Attrs = nil
	}
	tr := s.tr
	s.release()
	tr.record(d)
}

// SpanBuffer accumulates the ended spans of one logical operation (a
// serving request's lifecycle tree) for a single deferred flush through
// Tracer.RecordTree. It does no synchronization of its own: exactly one
// goroutine owns it at a time, handed along with the operation it
// describes — the same ownership discipline as a Span handle. Buffering
// exists for hot paths that end spans while holding contended locks: an
// EndTo is a timestamp and a slice append, with every tracer lock, map
// touch, and flight-recorder offer deferred to the flush.
//
// Buffers recycle: NewSpanBuffer draws from a package pool, and the
// terminal flush edge — RecordTree, or Release for abandoned trees —
// returns the buffer (spans, attr arena and all) to it. A buffer must
// reach exactly one terminal edge and must not be touched after it
// (spanrelease-enforced, like span handles).
type SpanBuffer struct {
	spans []SpanData
	// attrs is the buffer's attribute arena: EndTo copies each ended
	// span's attrs here and the span's Attrs field becomes a capped
	// sub-slice of it, so one request's whole tree shares (at most) one
	// attr allocation — and a recycled buffer shares zero. Arena growth
	// can move earlier entries to a new backing array; the sub-slices
	// already taken keep the old one alive, which is fine (Attr values
	// are never mutated in place).
	attrs []Attr
	// pooled marks buffers drawn from NewSpanBuffer, the ones recycle
	// returns to the pool. Zero-value buffers are merely cleared.
	pooled bool
}

// bufPool recycles SpanBuffers with their backing arrays, so a warm
// serving path builds span trees with zero steady-state allocations.
var bufPool = sync.Pool{New: func() any { return new(SpanBuffer) }}

// NewSpanBuffer draws a recycled span buffer from the package pool. It
// must reach exactly one terminal edge — RecordTree (which recycles it)
// or Release — and must not be used afterwards.
func NewSpanBuffer() *SpanBuffer {
	b := bufPool.Get().(*SpanBuffer)
	b.pooled = true
	return b
}

// Release clears the buffer and, if it came from NewSpanBuffer, returns
// it to the pool — the terminal edge for trees that will never flush.
// Safe on nil; zero-value buffers are just cleared.
func (b *SpanBuffer) Release() {
	if b == nil {
		return
	}
	b.recycle()
}

// recycle zeroes the buffer's entries (dropping their references for
// the GC) while keeping both backing arrays, then pools the buffer if
// it is poolable.
func (b *SpanBuffer) recycle() {
	clear(b.spans)
	clear(b.attrs)
	b.spans = b.spans[:0]
	b.attrs = b.attrs[:0]
	if b.pooled {
		b.pooled = false
		bufPool.Put(b)
	}
}

// internAttrs copies attrs into the buffer's arena and returns the
// arena-backed copy, capped so later arena appends cannot write through
// it. Empty input returns nil.
func (b *SpanBuffer) internAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	start := len(b.attrs)
	b.attrs = append(b.attrs, attrs...)
	return b.attrs[start:len(b.attrs):len(b.attrs)]
}

// Len reports how many ended spans the buffer holds (0 on nil).
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.spans)
}

// Reserve pre-sizes the buffer for n spans (and their attrs, at the
// lifecycle spans' ≤4-attrs-per-span budget), so later EndTo appends on
// locked paths never grow a slice. No-op on nil or when capacity
// already suffices; a pooled buffer's arrays stay grown across
// recycles, so this stops allocating once the pool is warm.
func (b *SpanBuffer) Reserve(n int) {
	if b == nil {
		return
	}
	if cap(b.spans)-len(b.spans) < n {
		grown := make([]SpanData, len(b.spans), len(b.spans)+n)
		copy(grown, b.spans)
		b.spans = grown
	}
	if need := 4 * n; cap(b.attrs)-len(b.attrs) < need {
		grown := make([]Attr, len(b.attrs), len(b.attrs)+need)
		copy(grown, b.attrs)
		b.attrs = grown
	}
}

// EndTo closes the span, appends it to b instead of recording it in the
// tracer — the caller flushes the buffer later with RecordTree — and
// recycles the handle; the span must not be used after this call. A nil
// buffer falls back to End.
func (s *Span) EndTo(b *SpanBuffer) {
	if s == nil || s.tr == nil {
		return
	}
	if b == nil {
		s.End()
		return
	}
	s.data.End = s.tr.now()
	d := s.data
	d.Attrs = b.internAttrs(d.Attrs)
	b.spans = append(b.spans, d)
	s.release()
}

// RecordTree flushes a span buffer into the ring storage and completes
// the trace in the flight recorder (no-op when flight is disabled): a
// non-empty reason retains the tree — the buffered spans plus any spans
// recorded directly under the same trace ID, like the executor's
// per-unit spans — and an empty reason discards it. The whole buffer
// lands under one shard-lock acquisition, so a request's ~9 lifecycle
// spans cost one lock hop at completion instead of nine on the hot path.
// Nil-safe on the tracer and the buffer; RecordTree is the buffer's
// terminal edge — it is recycled (pooled buffers return to the pool)
// and must not be used after this call.
func (t *Tracer) RecordTree(b *SpanBuffer, trace uint64, reason string) {
	if t == nil {
		if b != nil {
			b.recycle()
		}
		return
	}
	var owned []SpanData
	if b != nil {
		owned = b.spans
	}
	if len(owned) > 0 {
		sh := &t.shards[trace%uint64(len(t.shards))]
		sh.mu.Lock()
		for _, d := range owned {
			sh.storeLocked(d)
		}
		sh.mu.Unlock()
	}
	if trace != 0 {
		if fl := t.flight.Load(); fl != nil {
			// completeTree deep-copies anything it retains, so recycling
			// the buffer below cannot corrupt a kept tree.
			if fl.completeTree(trace, reason, owned) {
				if sp := t.sampler.Load(); sp != nil {
					sp.noteClass(reason)
				}
			}
		}
	}
	if b != nil {
		b.recycle()
	}
}

// Emit records a fully-formed span directly (used by call sites that
// reconstruct timelines after the fact, like the network executor's
// per-unit device timeline). A zero ID is assigned; a zero Trace becomes
// the span's own ID. Returns the recorded span's ID (0 on nil).
func (t *Tracer) Emit(d SpanData) uint64 {
	if t == nil {
		return 0
	}
	if d.ID == 0 {
		d.ID = t.nextID.Add(1)
	}
	if d.Trace == 0 {
		d.Trace = d.ID
	}
	t.record(d)
	return d.ID
}

// record appends one ended span to its ring shard and offers it to the
// flight recorder (after releasing the shard lock — the recorder has its
// own synchronization and the two never nest).
func (t *Tracer) record(d SpanData) {
	sh := &t.shards[d.ID%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.storeLocked(d)
	sh.mu.Unlock()
	if fl := t.flight.Load(); fl != nil {
		fl.offer(d)
	}
}

// storeLocked writes one ended span into the ring, recycling the
// overwritten slot's attr storage in place: ring slots own their attr
// backing exclusively (every store path copies attr values in, never
// the caller's slice header), so a warm wrapped ring records spans with
// zero allocations and nothing outside the shard can alias a recycled
// slot. Runs with spanShard.mu held.
func (sh *spanShard) storeLocked(d SpanData) {
	var slot *SpanData
	if len(sh.spans) < sh.cap {
		sh.spans = append(sh.spans, SpanData{})
		slot = &sh.spans[len(sh.spans)-1]
		sh.next = len(sh.spans) % sh.cap
	} else {
		slot = &sh.spans[sh.next]
		sh.next = (sh.next + 1) % sh.cap
	}
	reuse := slot.Attrs[:0]
	*slot = d
	slot.Attrs = append(reuse, d.Attrs...)
	sh.total++
}

// RecordSeries stores one sample timeline (e.g. pool-occupancy samples)
// anchored at the call instant with a declared 1µs step between samples.
// Call sites that know the wall interval the samples actually cover
// should use RecordSeriesSpan so the curve aligns with recorded spans.
func (t *Tracer) RecordSeries(name, device, unit string, samples []int) {
	if t == nil || len(samples) == 0 {
		return
	}
	t.RecordSeriesSpan(name, device, unit, t.now(), 0, samples)
}

// RecordSeriesSpan stores one sample timeline spread evenly across the
// wall interval [start, end] (nanoseconds since the tracer's epoch, the
// Tracer.Now clock) — the exported counter curve then lines up with
// spans recorded over the same interval. An end at or before start
// falls back to a 1µs step.
func (t *Tracer) RecordSeriesSpan(name, device, unit string, start, end int64, samples []int) {
	if t == nil || len(samples) == 0 {
		return
	}
	step := int64(1000)
	if end > start && len(samples) > 1 {
		step = (end - start) / int64(len(samples)-1)
		if step <= 0 {
			step = 1
		}
	}
	cp := append([]int(nil), samples...)
	t.mu.Lock()
	t.series = append(t.series, Series{
		Name: name, Device: device, Unit: unit, Samples: cp,
		Start: start, Step: step,
	})
	t.mu.Unlock()
}

// Snapshot is a consistent copy of everything the tracer holds.
type Snapshot struct {
	// Spans are the retained spans, oldest first.
	Spans []SpanData
	// TotalSpans counts every span ever recorded; DroppedSpans the ones
	// the ring buffer overwrote (Total - len(Spans)).
	TotalSpans, DroppedSpans uint64
	// Series are the recorded sample timelines.
	Series []Series
	// Families are the tracer registry's metric families (CounterVec/
	// GaugeVec/HistogramVec), sorted by name, with trailing-window views
	// merged as of the snapshot instant.
	Families []FamilyData
}

// Snapshot returns a copy of the tracer's state (nil-safe: a nil tracer
// yields an empty snapshot).
func (t *Tracer) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if t == nil {
		return snap
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		start := len(snap.Spans)
		if len(sh.spans) == sh.cap {
			snap.Spans = append(snap.Spans, sh.spans[sh.next:]...)
			snap.Spans = append(snap.Spans, sh.spans[:sh.next]...)
		} else {
			snap.Spans = append(snap.Spans, sh.spans...)
		}
		// Ring slots recycle their attr storage in place (storeLocked),
		// so the snapshot takes its own attr copies under the shard lock.
		for j := start; j < len(snap.Spans); j++ {
			if a := snap.Spans[j].Attrs; len(a) > 0 {
				snap.Spans[j].Attrs = append([]Attr(nil), a...)
			}
		}
		snap.TotalSpans += sh.total
		sh.mu.Unlock()
	}
	// Each shard contributed its spans oldest-first; interleave the
	// shards back into one oldest-first timeline (End order, span ID as
	// the tie-break for spans ended within the same nanosecond).
	sort.Slice(snap.Spans, func(i, j int) bool {
		if snap.Spans[i].End != snap.Spans[j].End {
			return snap.Spans[i].End < snap.Spans[j].End
		}
		return snap.Spans[i].ID < snap.Spans[j].ID
	})
	snap.DroppedSpans = snap.TotalSpans - uint64(len(snap.Spans))
	t.mu.Lock()
	snap.Series = append([]Series(nil), t.series...)
	t.mu.Unlock()
	snap.Families = t.reg.Families()
	return snap
}
