package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// buildTree buffers a two-span request tree (root + execute stage) plus
// nUnits emitted unit spans under the stage, the shape the serve layer
// hands to RecordTree. Returns the buffer and the tree's trace ID.
func buildTree(tr *Tracer, name string, nUnits int) (*SpanBuffer, uint64) {
	b := NewSpanBuffer()
	root := tr.Start(name, KindRequest)
	trace := root.TraceID()
	child := tr.StartChild(root, "execute", KindStage)
	for i := 0; i < nUnits; i++ {
		tr.EmitTo(b, SpanData{
			Parent: child.ID(), Trace: trace,
			Name: fmt.Sprintf("unit%d", i), Kind: KindUnit,
			Attrs: []Attr{Int("unit", int64(i))},
		})
	}
	child.EndTo(b)
	root.EndTo(b)
	return b, trace
}

// TestFlightRetentionProperty is the retention property test: under
// concurrent traffic where only some trees complete with a reason, the
// retained ring holds ONLY reason-bearing trees, whole and with their own
// attrs, never exceeds its budget, and the traffic stats reconcile. Run
// under -race in CI.
func TestFlightRetentionProperty(t *testing.T) {
	const (
		workers   = 8
		perWorker = 200
		maxTraces = 16
	)
	tr := New(Options{})
	tr.EnableFlight(FlightOptions{MaxTraces: maxTraces})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b, trace := buildTree(tr, fmt.Sprintf("request-%d-%d", w, i), 1)
				// Every 7th request is "interesting".
				reason := ""
				if i%7 == 0 {
					reason = "deadline"
				}
				tr.RecordTree(b, trace, reason)
			}
		}(w)
	}
	wg.Wait()

	fs := tr.FlightSnapshot()
	if len(fs.Traces) > maxTraces {
		t.Fatalf("retained %d traces, budget %d", len(fs.Traces), maxTraces)
	}
	if len(fs.Traces) == 0 {
		t.Fatal("no traces retained despite interesting completions")
	}
	for _, ft := range fs.Traces {
		if ft.Reason != "deadline" {
			t.Fatalf("retained trace with reason %q — only interesting outcomes may be retained", ft.Reason)
		}
		if len(ft.Spans) != 3 {
			t.Fatalf("retained trace has %d spans, want 3 (root, execute, unit)", len(ft.Spans))
		}
		for _, d := range ft.Spans {
			if d.Trace != ft.Trace {
				t.Fatalf("span %s of trace %d carries trace %d", d.Name, ft.Trace, d.Trace)
			}
			// The buffer's arena was recycled for later trees: a retained
			// unit span must still hold its own attr.
			if d.Kind == KindUnit && (len(d.Attrs) != 1 || d.Attrs[0].Key != "unit" || d.Attrs[0].Int != 0) {
				t.Fatalf("retained unit span attrs corrupted: %+v", d.Attrs)
			}
		}
	}
	if fs.Stats.Completed != workers*perWorker {
		t.Fatalf("completed = %d, want %d", fs.Stats.Completed, workers*perWorker)
	}
	wantRetained := uint64(workers * ((perWorker + 6) / 7))
	if fs.Stats.Retained != wantRetained {
		t.Fatalf("retained stat = %d, want %d", fs.Stats.Retained, wantRetained)
	}
	if fs.Stats.EvictedRetained != wantRetained-uint64(len(fs.Traces)) {
		t.Fatalf("evicted-retained = %d, retained = %d, ring = %d: stats don't reconcile",
			fs.Stats.EvictedRetained, fs.Stats.Retained, len(fs.Traces))
	}

	// Spans recorded outside RecordTree reach the span ring only: the
	// recorder takes in nothing it was not handed.
	root := tr.Start("netplan.plan", KindPlan)
	tr.StartChild(root, "netplan.solve", KindPlan).End()
	root.End()
	tr.Emit(SpanData{Name: "unit", Kind: KindUnit})
	if after := tr.FlightSnapshot(); after.Stats != fs.Stats || len(after.Traces) != len(fs.Traces) {
		t.Fatalf("spans ended outside RecordTree moved the recorder: %+v -> %+v", fs.Stats, after.Stats)
	}
}

// TestFlightTreeTruncation: the per-tree span budget truncates a chatty
// owned tree instead of retaining it unbounded, and counts the drop both
// on the tree and in the recorder stats.
func TestFlightTreeTruncation(t *testing.T) {
	tr := New(Options{})
	tr.EnableFlight(FlightOptions{MaxSpansPerTree: 4})
	b, trace := buildTree(tr, "request", 10)
	tr.RecordTree(b, trace, "p99")
	fs := tr.FlightSnapshot()
	if len(fs.Traces) != 1 {
		t.Fatalf("retained %d trees, want 1", len(fs.Traces))
	}
	last := fs.Traces[0]
	if len(last.Spans) != 4 {
		t.Fatalf("truncated tree has %d spans, want 4", len(last.Spans))
	}
	if last.Truncated != 8 {
		t.Fatalf("truncated count = %d, want 8 (10 units + execute + root - 4 kept)", last.Truncated)
	}
	if fs.Stats.TruncatedSpans != 8 {
		t.Fatalf("TruncatedSpans stat = %d, want 8", fs.Stats.TruncatedSpans)
	}
}

// TestFlightDisabledAndNil: the recorder is strictly opt-in and
// nil-safe.
func TestFlightDisabledAndNil(t *testing.T) {
	var nilTr *Tracer
	nilTr.EnableFlight(FlightOptions{})
	if id := nilTr.EmitTo(NewSpanBuffer(), SpanData{Name: "u"}); id != 0 {
		t.Fatalf("nil tracer EmitTo returned id %d", id)
	}
	nilTr.RecordTree(NewSpanBuffer(), 1, "x")
	if fs := nilTr.FlightSnapshot(); len(fs.Traces) != 0 {
		t.Fatal("nil tracer retained traces")
	}
	tr := New(Options{})
	b, trace := buildTree(tr, "request", 2)
	tr.RecordTree(b, trace, "error")
	fs := tr.FlightSnapshot()
	if len(fs.Traces) != 0 || fs.Stats != (FlightStats{}) {
		t.Fatal("flight recorder active without EnableFlight")
	}
	// The tree still landed in the span ring.
	if got := len(tr.Snapshot().Spans); got != 4 {
		t.Fatalf("span ring holds %d spans, want the 4 flushed", got)
	}
}

// TestWriteFlightChrome checks the dump carries the retention reason on
// each root and loads as a normal Chrome trace.
func TestWriteFlightChrome(t *testing.T) {
	tr := New(Options{})
	tr.EnableFlight(FlightOptions{})
	b, trace := buildTree(tr, "request", 1)
	tr.RecordTree(b, trace, "device-lost")
	var sb strings.Builder
	if err := WriteFlightChrome(&sb, tr.FlightSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"flight_reason": "device-lost"`) {
		t.Fatalf("flight reason missing from dump:\n%s", out)
	}
	if !strings.Contains(out, `"name": "execute"`) {
		t.Fatal("child span missing from dump")
	}
	if !strings.Contains(out, `"cat": "unit"`) {
		t.Fatal("emitted unit span missing from dump")
	}
}
