package obs

import (
	"sync"
	"sync/atomic"
)

// The flight recorder is the always-on tail-sampling layer: at serving
// rates recording every request's span tree is unbounded, and sampling
// heads alone (decide at submit) misses exactly the requests an operator
// cares about — the ones that went wrong. Tail sampling inverts it: the
// OWNER of a request (the serve layer, which knows the outcome) buffers
// the request's whole span tree in a SpanBuffer — lifecycle stages via
// EndTo, the executor's per-unit spans via EmitTo — and hands it over in
// one RecordTree call at completion, either with a retention reason
// (error, shed, deadline miss, degraded admission, device-lost, latency
// above the live p99) or without one. Retained trees land in a small FIFO
// ring dumpable as Chrome trace JSON (/debug/flight, vmcu-serve
// -flight-out).
//
// RecordTree is the recorder's only intake. Spans recorded through End or
// Emit reach the span ring alone, never the recorder, so between
// completions it holds nothing but the retained ring: the owner of a
// request holds every span of its tree until it decides. Two budgets bound
// it — spans per retained tree (the excess is dropped and counted) and
// retained trees (the oldest is overwritten) — so under overload the
// recorder keeps the most recent trees and never grows.
//
// The head sampler (sample.go) composes with, not replaces, this layer:
// head-sampled requests keep the full tail predicate here, and
// head-unsampled requests ending in an always-keep class retain a
// synthetic single-span exemplar directly in the ring (retain), so the
// interesting outcomes stay 100%-captured at any head rate.

// Flight recorder defaults (used when the corresponding FlightOptions
// field is 0).
const (
	DefaultFlightMaxTraces       = 64
	DefaultFlightMaxSpansPerTree = 512
)

// FlightOptions bound the flight recorder's retained ring.
type FlightOptions struct {
	// MaxTraces bounds the retained ring (the exemplars an operator
	// sees); 0 means DefaultFlightMaxTraces.
	MaxTraces int
	// MaxSpansPerTree bounds one retained tree's span count; further
	// spans are dropped and counted. 0 means DefaultFlightMaxSpansPerTree.
	MaxSpansPerTree int
}

func (o FlightOptions) withDefaults() FlightOptions {
	if o.MaxTraces <= 0 {
		o.MaxTraces = DefaultFlightMaxTraces
	}
	if o.MaxSpansPerTree <= 0 {
		o.MaxSpansPerTree = DefaultFlightMaxSpansPerTree
	}
	return o
}

// flightRecorder holds the tail-sampling state: traffic stats (atomics,
// so completions never serialize on a stats lock) and the retained
// exemplar ring (touched only when a tree is actually kept).
type flightRecorder struct {
	opts FlightOptions

	completed      atomic.Uint64
	retainedCount  atomic.Uint64
	truncatedSpans atomic.Uint64

	// retMu guards the retained exemplar ring and its eviction counter.
	// retained is circular storage (len == MaxTraces once full, retNext
	// the write index): retention at overload is a slot overwrite, never
	// a slice copy — at saturation every shed request retains a tree, so
	// this sits on the serving hot path.
	retMu           sync.Mutex
	retained        []FlightTrace
	retNext         int
	evictedRetained uint64
}

// FlightTrace is one retained span tree.
type FlightTrace struct {
	// Trace is the tree's trace ID; Reason the retention reason the
	// completing owner supplied ("deadline", "error", "p99", ...).
	Trace  uint64
	Reason string
	// Spans are the tree's spans in recording order; Truncated counts
	// spans dropped past the per-tree budget.
	Spans     []SpanData
	Truncated uint64
}

// FlightStats count the recorder's traffic since EnableFlight.
type FlightStats struct {
	// Completed counts trees completed through RecordTree; Retained the
	// ones kept (plus the head sampler's synthetic exemplars, see retain).
	Completed, Retained uint64
	// EvictedRetained counts retained trees pushed out of the ring by
	// newer ones.
	EvictedRetained uint64
	// TruncatedSpans counts spans dropped by the per-tree budget.
	TruncatedSpans uint64
}

// FlightSnapshot is a copy of the retained ring plus traffic stats.
type FlightSnapshot struct {
	Traces []FlightTrace
	Stats  FlightStats
}

// EnableFlight turns on the tail-sampled flight recorder. Safe on a nil
// tracer (no-op); calling it again replaces the recorder and drops its
// state.
func (t *Tracer) EnableFlight(opts FlightOptions) {
	if t == nil {
		return
	}
	fl := &flightRecorder{opts: opts.withDefaults()}
	t.flight.Store(fl)
}

// completeTree finishes the tree an owner handed to RecordTree: a
// non-empty reason retains its spans (up to the per-tree budget) in the
// exemplar ring, an empty reason discards them. Reports whether the tree
// was retained.
func (fl *flightRecorder) completeTree(trace uint64, reason string, owned []SpanData) bool {
	fl.completed.Add(1)
	if reason == "" || len(owned) == 0 {
		return false
	}
	var truncated uint64
	if over := len(owned) - fl.opts.MaxSpansPerTree; over > 0 {
		truncated = uint64(over)
		fl.truncatedSpans.Add(truncated)
		owned = owned[:fl.opts.MaxSpansPerTree]
	}
	// The owner's spans alias the SpanBuffer's pooled attr arena, which
	// RecordTree recycles the moment this returns — so retention
	// deep-copies their attrs. Only kept trees (the rare ones) pay.
	cp := make([]SpanData, len(owned))
	for i, d := range owned {
		if len(d.Attrs) > 0 {
			d.Attrs = append([]Attr(nil), d.Attrs...)
		}
		cp[i] = d
	}
	fl.retain(FlightTrace{
		Trace: trace, Reason: reason,
		Spans: cp, Truncated: truncated,
	})
	return true
}

// retain puts one finished tree into the exemplar ring. Besides
// completeTree, this is the entry point for the head sampler's
// synthetic always-keep exemplars (Tracer.SampleTailKeep), which never
// went through RecordTree — those bump Retained without a matching
// Completed, so FlightStats.Retained can exceed Completed under head
// sampling.
func (fl *flightRecorder) retain(ft FlightTrace) {
	fl.retainedCount.Add(1)
	fl.retMu.Lock()
	if len(fl.retained) < fl.opts.MaxTraces {
		fl.retained = append(fl.retained, ft)
		fl.retNext = len(fl.retained) % fl.opts.MaxTraces
	} else {
		fl.retained[fl.retNext] = ft
		fl.retNext = (fl.retNext + 1) % fl.opts.MaxTraces
		fl.evictedRetained++
	}
	fl.retMu.Unlock()
}

// FlightSnapshot copies the retained exemplar ring (nil-safe: a nil or
// flight-disabled tracer yields an empty snapshot).
func (t *Tracer) FlightSnapshot() *FlightSnapshot {
	snap := &FlightSnapshot{}
	if t == nil {
		return snap
	}
	fl := t.flight.Load()
	if fl == nil {
		return snap
	}
	fl.retMu.Lock()
	snap.Traces = make([]FlightTrace, 0, len(fl.retained))
	appendCopy := func(src []FlightTrace) {
		for _, ft := range src {
			cp := ft
			cp.Spans = append([]SpanData(nil), ft.Spans...)
			snap.Traces = append(snap.Traces, cp)
		}
	}
	// Unroll the circular storage oldest-first.
	if len(fl.retained) == fl.opts.MaxTraces {
		appendCopy(fl.retained[fl.retNext:])
		appendCopy(fl.retained[:fl.retNext])
	} else {
		appendCopy(fl.retained)
	}
	snap.Stats.EvictedRetained = fl.evictedRetained
	fl.retMu.Unlock()
	snap.Stats.Completed = fl.completed.Load()
	snap.Stats.Retained = fl.retainedCount.Load()
	snap.Stats.TruncatedSpans = fl.truncatedSpans.Load()
	return snap
}
