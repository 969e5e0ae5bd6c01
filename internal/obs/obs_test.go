package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	s := tr.Start("op", KindStage)
	if s != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	// Every method on the nil handles must be a no-op, not a panic.
	s.SetDevice("m4")
	s.SetCycles(0, 10)
	s.Attr(Int("n", 1), Float("f", 2), Str("s", "x"))
	s.End()
	if got := s.ID(); got != 0 {
		t.Fatalf("nil span ID = %d, want 0", got)
	}
	tr.StartChild(nil, "child", KindStage).End()
	tr.StartUnder(7, 9, "u", KindUnit).End()
	reg := tr.Registry()
	if reg != nil {
		t.Fatal("nil tracer returned a non-nil registry")
	}
	reg.CounterVec("c", "").With().Inc()
	reg.CounterVec("c", "").With().Add(5)
	reg.GaugeVec("g", "", WindowOptions{}).With().Set(1.5)
	reg.HistogramVec("h", "", []float64{1, 2}, WindowOptions{}).With().Observe(1)
	if fams := reg.Families(); fams != nil {
		t.Fatalf("nil registry families = %+v", fams)
	}
	tr.RecordSeries("pool", "m4", "bytes", []int{1, 2, 3})
	if id := tr.Emit(SpanData{Name: "e"}); id != 0 {
		t.Fatalf("nil tracer Emit returned id %d", id)
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 0 || snap.TotalSpans != 0 || len(snap.Series) != 0 || len(snap.Families) != 0 {
		t.Fatalf("nil tracer snapshot not empty: %+v", snap)
	}
}

func TestSpanTreeRecording(t *testing.T) {
	tr := New(Options{})
	root := tr.Start("request", KindRequest)
	root.SetDevice("m4")
	root.Attr(Str("model", "vww"))
	child := tr.StartChild(root, "queue", KindStage)
	childID, childTrace := child.ID(), child.TraceID()
	child.End()
	grand := tr.StartUnder(childID, childTrace, "unit", KindUnit)
	grand.SetCycles(100, 350)
	grand.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	r, q, u := byName["request"], byName["queue"], byName["unit"]
	if r.Parent != 0 || r.Trace != r.ID {
		t.Fatalf("root span linkage wrong: %+v", r)
	}
	if q.Parent != r.ID || q.Trace != r.ID {
		t.Fatalf("child span linkage wrong: %+v (root %+v)", q, r)
	}
	if u.Parent != q.ID || u.Trace != r.ID {
		t.Fatalf("grandchild span linkage wrong: %+v", u)
	}
	if u.StartCycles != 100 || u.EndCycles != 350 {
		t.Fatalf("cycles not recorded: %+v", u)
	}
	if r.Device != "m4" {
		t.Fatalf("device not recorded: %+v", r)
	}
	if len(r.Attrs) != 1 || r.Attrs[0].Key != "model" || r.Attrs[0].Value() != "vww" {
		t.Fatalf("attrs not recorded: %+v", r.Attrs)
	}
	// Spans are recorded at End: queue, unit, then request.
	if snap.Spans[0].Name != "queue" || snap.Spans[2].Name != "request" {
		t.Fatalf("span order wrong: %v %v %v",
			snap.Spans[0].Name, snap.Spans[1].Name, snap.Spans[2].Name)
	}
	for _, s := range snap.Spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts: %+v", s.Name, s)
		}
	}
}

func TestRingBufferBoundsSpans(t *testing.T) {
	tr := New(Options{Capacity: 4})
	for i := 0; i < 10; i++ {
		s := tr.Start(fmt.Sprintf("op%d", i), KindStage)
		s.End()
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(snap.Spans))
	}
	if snap.TotalSpans != 10 || snap.DroppedSpans != 6 {
		t.Fatalf("total/dropped = %d/%d, want 10/6", snap.TotalSpans, snap.DroppedSpans)
	}
	// Oldest-first order of the survivors: op6..op9.
	for i, s := range snap.Spans {
		if want := fmt.Sprintf("op%d", 6+i); s.Name != want {
			t.Fatalf("span %d = %s, want %s", i, s.Name, want)
		}
	}
}

// familyNamed returns the named family of a snapshot, failing the test
// when it is missing or has no series.
func familyNamed(t *testing.T, fams []FamilyData, name string) FamilyData {
	t.Helper()
	for _, f := range fams {
		if f.Name == name && len(f.Series) > 0 {
			return f
		}
	}
	t.Fatalf("family %q missing from %+v", name, fams)
	return FamilyData{}
}

func TestMetricsRegistry(t *testing.T) {
	tr := New(Options{})
	reg := tr.Registry()
	reg.CounterVec("reqs", "").With().Inc()
	reg.CounterVec("reqs", "").With().Add(2)
	reg.GaugeVec("depth", "", WindowOptions{}).With().Set(3)
	reg.GaugeVec("depth", "", WindowOptions{}).With().Set(7)
	h := reg.HistogramVec("lat", "", []float64{10, 20, 50}, WindowOptions{}).With()
	for _, v := range []float64{5, 10, 10.5, 20, 21, 1000} {
		h.Observe(v)
	}
	// The tracer's snapshot exports exactly its registry's families.
	fams := tr.Snapshot().Families
	if len(fams) != 3 {
		t.Fatalf("snapshot holds %d families, want 3", len(fams))
	}
	if c := familyNamed(t, fams, "reqs").Series[0].Counter; c != 3 {
		t.Fatalf("counter = %d, want 3", c)
	}
	if g := familyNamed(t, fams, "depth").Series[0].Gauge; g != 7 {
		t.Fatalf("gauge = %g, want 7", g)
	}
	hd := *familyNamed(t, fams, "lat").Series[0].Hist
	// Buckets (le semantics): <=10: {5,10}, <=20: {10.5,20}, <=50: {21}, +Inf: {1000}.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if hd.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, hd.Counts[i], w, hd)
		}
	}
	if hd.Count != 6 || hd.Sum != 5+10+10.5+20+21+1000 {
		t.Fatalf("count/sum = %d/%g", hd.Count, hd.Sum)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("b", "", []float64{1, 2}, WindowOptions{}).With()
	// A value exactly on a bound counts into that bound's bucket.
	h.Observe(1)
	h.Observe(2)
	h.Observe(2.0000001)
	hd := *familyNamed(t, reg.Families(), "b").Series[0].Hist
	if hd.Counts[0] != 1 || hd.Counts[1] != 1 || hd.Counts[2] != 1 {
		t.Fatalf("boundary bucketing wrong: %+v", hd)
	}
}

func TestSeriesRecording(t *testing.T) {
	tr := New(Options{})
	samples := []int{1, 5, 3}
	tr.RecordSeries("pool_bytes", "m4", "bytes", samples)
	samples[0] = 99 // the tracer must have copied
	snap := tr.Snapshot()
	if len(snap.Series) != 1 {
		t.Fatalf("got %d series, want 1", len(snap.Series))
	}
	sr := snap.Series[0]
	if sr.Name != "pool_bytes" || sr.Device != "m4" || sr.Unit != "bytes" {
		t.Fatalf("series metadata wrong: %+v", sr)
	}
	if sr.Samples[0] != 1 {
		t.Fatal("series samples were not copied on record")
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := New(Options{Capacity: 256})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.Start("op", KindStage)
				s.Attr(Int("g", int64(g)))
				s.End()
				tr.Registry().CounterVec("n", "").With().Inc()
				tr.Registry().HistogramVec("h", "", []float64{1, 10}, WindowOptions{}).With().Observe(float64(i))
				if i%50 == 0 {
					tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.TotalSpans != 1600 {
		t.Fatalf("total spans = %d, want 1600", snap.TotalSpans)
	}
	if c := familyNamed(t, snap.Families, "n").Series[0].Counter; c != 1600 {
		t.Fatalf("counter = %d, want 1600", c)
	}
	if len(snap.Spans) != 256 {
		t.Fatalf("retained %d spans, want the 256-cap", len(snap.Spans))
	}
}

func TestEmitAssignsIDs(t *testing.T) {
	tr := New(Options{})
	id := tr.Emit(SpanData{Name: "unit", Kind: KindUnit, StartCycles: 0, EndCycles: 42})
	if id == 0 {
		t.Fatal("Emit did not assign an ID")
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].ID != id || snap.Spans[0].Trace != id {
		t.Fatalf("emitted span wrong: %+v", snap.Spans)
	}
}
