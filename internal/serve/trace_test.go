package serve

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// requestTree reconstructs one request's span tree from a snapshot: the
// root span plus its stage children by name, and the unit spans under the
// execute stage.
type requestTree struct {
	root   obs.SpanData
	stages map[string]obs.SpanData
	units  []obs.SpanData
}

// collectTrees groups a snapshot's spans into per-request trees keyed by
// the root span's trace ID.
func collectTrees(snap *obs.Snapshot) map[uint64]*requestTree {
	trees := map[uint64]*requestTree{}
	for _, s := range snap.Spans {
		if s.Kind == obs.KindRequest {
			trees[s.Trace] = &requestTree{root: s, stages: map[string]obs.SpanData{}}
		}
	}
	for _, s := range snap.Spans {
		tree, ok := trees[s.Trace]
		if !ok {
			continue
		}
		switch s.Kind {
		case obs.KindStage:
			tree.stages[s.Name] = s
		case obs.KindUnit:
			tree.units = append(tree.units, s)
		}
	}
	return trees
}

// findFamily returns a snapshot's labeled metric family by name, or nil.
func findFamily(snap *obs.Snapshot, name string) *obs.FamilyData {
	for i := range snap.Families {
		if snap.Families[i].Name == name {
			return &snap.Families[i]
		}
	}
	return nil
}

// sumFamily sums a labeled counter family's series whose labels match
// every key=value in filter (nil matches everything).
func sumFamily(snap *obs.Snapshot, name string, filter map[string]string) uint64 {
	fam := findFamily(snap, name)
	if fam == nil {
		return 0
	}
	var total uint64
series:
	for _, sr := range fam.Series {
		for k, v := range filter {
			for i, key := range fam.Keys {
				if key == k && sr.Values[i] != v {
					continue series
				}
			}
		}
		total += sr.Counter
	}
	return total
}

// TestTracedLifecycleSpanTree drives a traced server end to end and proves
// every completed request records a connected span tree — submit, queue,
// admit (with its ledger.reserve child), dispatch, execute (with one unit
// span per executed kernel, carrying device cycle counters), complete
// (with its ledger.release child) — all under one root, plus the serving
// counters and the latency histogram on the same tracer.
func TestTracedLifecycleSpanTree(t *testing.T) {
	tr := obs.New(obs.Options{})
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	trees := collectTrees(snap)
	if len(trees) != n {
		t.Fatalf("got %d request trees, want %d", len(trees), n)
	}
	wantStages := []string{"submit", "queue", "admit", "dispatch", "execute", "complete"}
	for trace, tree := range trees {
		if tree.root.End < tree.root.Start {
			t.Errorf("trace %d: root span never ended: %+v", trace, tree.root)
		}
		for _, name := range wantStages {
			st, ok := tree.stages[name]
			if !ok {
				t.Fatalf("trace %d: stage %q missing (have %v)", trace, name, stageNames(tree))
			}
			// Lifecycle stages hang directly off the root; the ledger
			// sub-stages hang off admit/complete and are checked below.
			if st.Parent != tree.root.ID {
				t.Errorf("trace %d: stage %s parent = %d, want root %d", trace, name, st.Parent, tree.root.ID)
			}
		}
		res, ok := tree.stages["ledger.reserve"]
		if !ok || res.Parent != tree.stages["admit"].ID {
			t.Errorf("trace %d: ledger.reserve missing or detached from admit", trace)
		}
		rel, ok := tree.stages["ledger.release"]
		if !ok || rel.Parent != tree.stages["complete"].ID {
			t.Errorf("trace %d: ledger.release missing or detached from complete", trace)
		}
		// The executed units are children of the execute stage and carry
		// device cycle counters.
		if len(tree.units) == 0 {
			t.Fatalf("trace %d: no unit spans under execute", trace)
		}
		for _, u := range tree.units {
			if u.Parent != tree.stages["execute"].ID {
				t.Errorf("trace %d: unit %s parent = %d, want execute %d",
					trace, u.Name, u.Parent, tree.stages["execute"].ID)
			}
			if u.Device != "m4" {
				t.Errorf("trace %d: unit %s device = %q", trace, u.Name, u.Device)
			}
			cyc := -1.0
			for _, a := range u.Attrs {
				if a.Key == "cycles" {
					cyc = a.Float
				}
			}
			if cyc <= 0 {
				t.Errorf("trace %d: unit %s has no device cycle count: %+v", trace, u.Name, u.Attrs)
			}
		}
		// Stage ordering on the wall clock.
		for i := 1; i < len(wantStages); i++ {
			prev, cur := tree.stages[wantStages[i-1]], tree.stages[wantStages[i]]
			if cur.Start < prev.Start {
				t.Errorf("trace %d: stage %s starts before %s", trace, wantStages[i], wantStages[i-1])
			}
		}
	}

	if got := sumFamily(snap, metricSubmitted, map[string]string{"model": "tiny"}); got != n {
		t.Errorf("tracer submitted = %d, want %d", got, n)
	}
	if got := sumFamily(snap, metricOutcomes, map[string]string{"outcome": outcomeDone}); got != n {
		t.Errorf("tracer done outcomes = %d, want %d", got, n)
	}
	latFam := findFamily(snap, metricLatencyMs)
	if latFam == nil || len(latFam.Series) != 1 {
		t.Fatalf("latency family missing or wrong shape: %+v", latFam)
	}
	if h := latFam.Series[0].Hist; h == nil || h.Count != n {
		t.Errorf("tracer latency histogram = %+v, want count %d", h, n)
	}
	if w := latFam.Series[0].Window; w == nil || w.Count != n {
		t.Errorf("tracer latency window = %+v, want count %d", w, n)
	}

	// The snapshot exports as valid Chrome trace JSON and Prometheus text.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, snap); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	buf.Reset()
	if err := obs.WritePrometheus(&buf, snap); err != nil {
		t.Fatalf("prometheus export: %v", err)
	}
}

// TestFlightRetainedTreeCarriesUnitSpans pins what a retained verify-mode
// tree holds. Every request misses its latency budget — checked against
// the variant's simulated latency, not the wall clock, so the outcome is
// deterministic — and is retained as budget-miss. Each retained tree must
// carry exactly one unit span per executed unit of its variant's plan
// (split region or modules, plus seams), each parented to that tree's
// execute span, and no planner span.
func TestFlightRetainedTreeCarriesUnitSpans(t *testing.T) {
	tr := obs.New(obs.Options{})
	tr.EnableFlight(obs.FlightOptions{})
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vww", graph.VWW(), ModelConfig{Pareto: true, LatencyBudget: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	wantUnits := map[string]int{} // variant → executed units of its plan
	for i := 0; i < n; i++ {
		tk, err := s.Submit("vww", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.MetLatencyBudget {
			t.Fatalf("request %d met a 1ns budget (estimated %v)", i, res.EstimatedLatency)
		}
		np := res.Run.Plan
		units := len(np.Modules) + len(np.Seams)
		if np.Split != nil {
			units += 1 - np.Split.Depth // the region's modules run as one unit
		}
		wantUnits[res.Variant] = units
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fs := tr.FlightSnapshot()
	if len(fs.Traces) != n {
		t.Fatalf("retained %d trees, want %d", len(fs.Traces), n)
	}
	for _, ft := range fs.Traces {
		if ft.Reason != "budget-miss" {
			t.Errorf("trace %d retained as %q, want budget-miss", ft.Trace, ft.Reason)
		}
		var exec obs.SpanData
		var units []obs.SpanData
		for _, d := range ft.Spans {
			switch {
			case d.Kind == obs.KindStage && d.Name == "execute":
				exec = d
			case d.Kind == obs.KindUnit:
				units = append(units, d)
			case d.Kind == obs.KindPlan:
				t.Errorf("trace %d holds planner span %s", ft.Trace, d.Name)
			}
		}
		if exec.ID == 0 {
			t.Fatalf("trace %d has no execute span", ft.Trace)
		}
		variant := ""
		for _, a := range exec.Attrs {
			if a.Key == "variant" {
				variant = a.Str
			}
		}
		want, ok := wantUnits[variant]
		if !ok {
			t.Fatalf("trace %d executed unknown variant %q", ft.Trace, variant)
		}
		if len(units) != want {
			t.Errorf("trace %d (variant %s) holds %d unit spans, want %d", ft.Trace, variant, len(units), want)
		}
		for _, u := range units {
			if u.Parent != exec.ID || u.Trace != ft.Trace {
				t.Errorf("trace %d: unit %s parent/trace = %d/%d, want execute %d/%d",
					ft.Trace, u.Name, u.Parent, u.Trace, exec.ID, ft.Trace)
			}
		}
	}
}

func stageNames(tree *requestTree) []string {
	names := make([]string, 0, len(tree.stages))
	for n := range tree.stages {
		names = append(names, n)
	}
	return names
}

// TestTracedQueueExits proves requests that never reach admission still
// close their span trees: deadline sheds and cancels end the queue span
// with an outcome attribute and end the root, and submit-time rejections
// (full queue) close the tree they opened.
func TestTracedQueueExits(t *testing.T) {
	tr := obs.New(obs.Options{})
	peak := peakOf(t, tinyModel())
	s, err := NewServer(Options{
		Devices:  []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4(), PoolBytes: peak, Slots: 1}},
		QueueCap: 1,
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first request is held mid-flight until the queue scenarios are
	// staged behind it: a tiny request would otherwise finish first.
	const occupySeed = 1
	occupy := newExecGate(func(*device) bool { return true })
	s.testExecGate = func(d *device, r *request) {
		if r.seed == occupySeed {
			occupy.hook(d, r)
		}
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}

	// First request occupies the only slot (pool fits exactly one peak).
	tk1, err := s.Submit("tiny", SubmitOptions{Seed: occupySeed})
	if err != nil {
		t.Fatal(err)
	}
	occupy.waitHeld(t, 1)

	// Second request: already-expired deadline — the next dispatcher scan
	// sheds it before it can be admitted.
	tkShed, err := s.Submit("tiny", SubmitOptions{Seed: 2, Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tkShed.Result(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("shed request resolved with %v, want ErrDeadline", err)
	}

	// Third request fills the queue; a fourth is rejected at submit.
	tkQueued, err := s.Submit("tiny", SubmitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("tiny", SubmitOptions{Seed: 4}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	// Cancel the queued request while its predecessor still runs.
	if !tkQueued.Cancel() {
		t.Fatal("cancel lost the race against admission (pool admits one request at a time)")
	}
	close(occupy.release)
	if _, err := tk1.Result(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	outcomes := map[string]int{}
	for _, tree := range collectTrees(snap) {
		if tree.root.End < tree.root.Start {
			t.Errorf("root span %d never ended", tree.root.ID)
		}
		state := ""
		for _, a := range tree.root.Attrs {
			if a.Key == "state" {
				state = a.Str
			}
		}
		outcomes[state]++
		// Non-admitted exits carry the outcome on their queue span too.
		if state == "shed-deadline" || state == "canceled" {
			q, ok := tree.stages["queue"]
			if !ok {
				t.Fatalf("%s tree has no queue span", state)
			}
			got := ""
			for _, a := range q.Attrs {
				if a.Key == "outcome" {
					got = a.Str
				}
			}
			if got != state {
				t.Errorf("queue span outcome = %q, want %q", got, state)
			}
		}
	}
	want := map[string]int{"done": 1, "shed-deadline": 1, "canceled": 1, "rejected-queue-full": 1}
	for state, n := range want {
		if outcomes[state] != n {
			t.Errorf("outcome %q trees = %d, want %d (all: %v)", state, outcomes[state], n, outcomes)
		}
	}
	for _, outcome := range []string{outcomeShedDeadline, outcomeCanceled, outcomeQueueFull} {
		if got := sumFamily(snap, metricOutcomes, map[string]string{"outcome": outcome}); got != 1 {
			t.Errorf("outcome counter %q = %d, want 1", outcome, got)
		}
	}
}

// TestLatencyHistogramBuckets pins the le bucket semantics of
// vmcu_serve_latency_ms as the server observes it (a completion exactly
// on a bound lands in that bound's bucket) and its overflow bucket.
func TestLatencyHistogramBuckets(t *testing.T) {
	reg := obs.NewRegistry()
	ins := newServeInstruments(reg)
	last := len(latencyBoundsMs)
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{500 * time.Microsecond, 0},              // below the first bound
		{1 * time.Millisecond, 0},                // exactly on the first bound
		{1*time.Millisecond + 1, 1},              // just past it
		{20 * time.Millisecond, 4},               // interior bound, exact
		{30 * time.Second, last - 1},             // last bound, exact
		{31 * time.Second, last},                 // overflow bucket
		{30*time.Second + time.Nanosecond, last}, // just past the last bound
	}
	want := make([]uint64, last+1)
	for _, c := range cases {
		ins.latency.With("m").Observe(float64(c.d) / float64(time.Millisecond))
		want[c.bucket]++
	}
	var h *obs.HistogramData
	for _, f := range reg.Families() {
		if f.Name == metricLatencyMs {
			h = f.Series[0].Hist
		}
	}
	if h == nil || h.Count != uint64(len(cases)) {
		t.Fatalf("latency histogram = %+v, want %d observations", h, len(cases))
	}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Errorf("bucket %d (le %v) = %d, want %d", i, h.Bounds[min(i, last-1)], h.Counts[i], want[i])
		}
	}
}

// TestMetricsLatencyHistogramExport proves an untraced server still keeps
// the bucketed latency histogram (vmcu_serve_latency_ms) consistently
// with its scalar counters.
func TestMetricsLatencyHistogramExport(t *testing.T) {
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Mode:    ExecDryRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		tk, err := s.Submit("tiny", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Completed != n {
		t.Fatalf("completed %d, want %d", m.Completed, n)
	}
	var h *obs.HistogramData
	for _, f := range s.reg.Families() {
		if f.Name == metricLatencyMs && len(f.Series) == 1 {
			h = f.Series[0].Hist
		}
	}
	if h == nil || len(h.Bounds) != len(latencyBoundsMs) || len(h.Counts) != len(latencyBoundsMs)+1 {
		t.Fatalf("histogram shape %+v, want %d bounds", h, len(latencyBoundsMs))
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != n || h.Count != n {
		t.Errorf("histogram counts %d / Count %d, want %d", total, h.Count, n)
	}
	if h.Sum <= 0 {
		t.Errorf("histogram sum = %v, want > 0", h.Sum)
	}
}
