package netplan

import (
	"sort"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// counterValue reads the single series of a label-less counter family on
// the tracer's registry (0 when the family was never created).
func counterValue(tr *obs.Tracer, name string) uint64 {
	for _, f := range tr.Snapshot().Families {
		if f.Name == name && len(f.Series) == 1 {
			return f.Series[0].Counter
		}
	}
	return 0
}

// TestCacheTracerCountersAgree churns a bounded cache through LRU
// evictions and proves the tracer's vmcu_plancache_* counters track
// CacheStats exactly — the eviction path is observable, not inferred.
func TestCacheTracerCountersAgree(t *testing.T) {
	tr := obs.New(obs.Options{})
	c := NewCacheWithCap(2)
	c.SetTracer(tr)

	nets := []graph.Network{tinyNet(8), tinyNet(10), tinyNet(12), tinyNet(14)}
	// Two rounds over four keys under a cap of 2: every round-two request
	// misses again (its entry was evicted by the churn), so hits, misses,
	// AND evictions all move.
	for round := 0; round < 2; round++ {
		for _, n := range nets {
			if _, _, err := c.Plan(n, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// And one guaranteed hit on the most recent entry.
	if _, hit, err := c.Plan(nets[len(nets)-1], Options{}); err != nil || !hit {
		t.Fatalf("expected hit on hottest entry (hit=%v err=%v)", hit, err)
	}

	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("churn produced no evictions: %+v", st)
	}
	if got := counterValue(tr, MetricCacheHits); got != st.Hits {
		t.Errorf("tracer hits = %d, CacheStats.Hits = %d", got, st.Hits)
	}
	if got := counterValue(tr, MetricCacheMisses); got != st.Misses {
		t.Errorf("tracer misses = %d, CacheStats.Misses = %d", got, st.Misses)
	}
	if got := counterValue(tr, MetricCacheEvictions); got != st.Evictions {
		t.Errorf("tracer evictions = %d, CacheStats.Evictions = %d", got, st.Evictions)
	}
}

// TestPlannerSpans proves a traced Plan records the whole-network solve
// spans and a traced Pareto records its enumeration progress.
func TestPlannerSpans(t *testing.T) {
	tr := obs.New(obs.Options{})
	net := tinyNet(16)
	if _, err := Plan(net, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	var planSpan *obs.SpanData
	solves := 0
	for i := range snap.Spans {
		s := &snap.Spans[i]
		switch s.Name {
		case "netplan.plan":
			planSpan = s
		case "netplan.solve":
			solves++
		}
	}
	if planSpan == nil || planSpan.Kind != obs.KindPlan {
		t.Fatalf("no netplan.plan span recorded: %+v", snap.Spans)
	}
	if solves == 0 {
		t.Fatal("no netplan.solve spans recorded")
	}
	// Every solve span belongs to a plan span's trace.
	for _, s := range snap.Spans {
		if s.Name == "netplan.solve" && s.Parent == 0 {
			t.Errorf("solve span %d has no parent", s.ID)
		}
	}

	if _, err := Pareto(mcu.CortexM4(), net, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	candidates, solved := counterValue(tr, MetricParetoCandidates), counterValue(tr, MetricParetoSolved)
	if candidates == 0 {
		t.Error("Pareto enumerated no candidates on the tracer")
	}
	if solved == 0 {
		t.Error("Pareto solved no candidates on the tracer")
	}
	if solved > candidates {
		t.Errorf("solved %d > candidates %d", solved, candidates)
	}
}

// TestRunTracedUnitSpans proves RunTraced records one KindUnit span per
// executed unit under the given parent/trace IDs, carrying the unit's
// device cycle counters and laying the simulated cycle axis out
// cumulatively. Units run on a worker pool and the snapshot orders spans
// by wall-clock end, so the cycle layout is checked in StartCycles order.
func TestRunTracedUnitSpans(t *testing.T) {
	tr := obs.New(obs.Options{})
	net := graph.VWW()
	const parentID, traceID = 77, 99
	run, err := RunTraced(mcu.CortexM4(), net, 1, Options{}, NewCache(),
		tr, parentID, traceID, "m4")
	if err != nil {
		t.Fatal(err)
	}
	wantUnits := len(run.Modules) + len(run.Seams)

	var units []obs.SpanData
	for _, s := range tr.Snapshot().Spans {
		if s.Kind == obs.KindUnit {
			units = append(units, s)
		}
	}
	if len(units) != wantUnits {
		t.Fatalf("recorded %d unit spans, want %d", len(units), wantUnits)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].StartCycles < units[j].StartCycles })
	cursor := 0.0
	for _, u := range units {
		if u.Parent != parentID || u.Trace != traceID {
			t.Errorf("unit %s not linked to parent/trace: %+v", u.Name, u)
		}
		if u.Device != "m4" {
			t.Errorf("unit %s device = %q, want m4", u.Name, u.Device)
		}
		if u.StartCycles != cursor || u.EndCycles <= u.StartCycles {
			t.Errorf("unit %s cycle window [%g,%g], want start at %g",
				u.Name, u.StartCycles, u.EndCycles, cursor)
		}
		cursor = u.EndCycles
		var cyc float64
		ok := false
		for _, a := range u.Attrs {
			if a.Key == "cycles" {
				cyc, ok = a.Float, true
			}
		}
		if !ok || cyc <= 0 {
			t.Errorf("unit %s has no positive cycles attribute: %+v", u.Name, u.Attrs)
		}
		if u.End < u.Start {
			t.Errorf("unit %s wall window inverted: %+v", u.Name, u)
		}
	}
}

// TestRunUntracedRecordsNothing pins the opt-in contract: the plain Run
// path with no tracer must not record spans anywhere.
func TestRunUntracedRecordsNothing(t *testing.T) {
	if _, err := Run(mcu.CortexM4(), tinyNet(16), 1, Options{}, NewCache()); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert against directly (no tracer exists); the test is
	// that the nil-tracer path executes without touching one — a panic or
	// race here would fail the run.
}
