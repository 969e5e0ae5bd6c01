package obs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// fakeClock swaps the window clock for a controllable one and restores
// it on cleanup.
func fakeClock(t *testing.T) *int64 {
	t.Helper()
	old := windowClock
	t.Cleanup(func() { windowClock = old })
	now := new(int64)
	windowClock = func() int64 { return *now }
	return now
}

// TestWindowedQuantileMergeMatchesOfflineSort drives a windowed
// histogram across many rotation boundaries (including full ring wraps
// and idle gaps) and, at every step, checks the merged trailing-window
// quantiles against an offline filter-and-sort over the same
// observation log.
func TestWindowedQuantileMergeMatchesOfflineSort(t *testing.T) {
	now := fakeClock(t)
	const width = int64(time.Second)
	const sub = 4
	hv := NewRegistry().HistogramVec("lat_ms", "latency", []float64{1, 5, 25, 100}, WindowOptions{
		SubWindows: sub, Width: time.Duration(width), SampleCap: 1 << 16,
	}, "model")
	h := hv.With("m4")

	type obsAt struct {
		nanos int64
		v     float64
	}
	var log []obsAt
	rng := rand.New(rand.NewSource(7))

	check := func(step int) {
		t.Helper()
		w := h.Window()
		if w == nil {
			t.Fatalf("step %d: windowed histogram returned nil window", step)
		}
		// Offline reference: trailing window = observations whose
		// sub-window index lies within the last `sub` indices of the
		// current one.
		cur := *now / width
		var want []float64
		for _, o := range log {
			idx := o.nanos / width
			if idx > cur-int64(sub) && idx <= cur {
				want = append(want, o.v)
			}
		}
		if uint64(len(want)) != w.Count {
			t.Fatalf("step %d: window count = %d, offline count = %d", step, w.Count, len(want))
		}
		if w.Count == 0 {
			return
		}
		if !w.Exact {
			t.Fatalf("step %d: window unexpectedly inexact (cap not hit)", step)
		}
		sort.Float64s(want)
		for _, q := range []struct {
			q    float64
			got  float64
			name string
		}{{0.50, w.P50, "p50"}, {0.90, w.P90, "p90"}, {0.95, w.P95, "p95"}, {0.99, w.P99, "p99"}} {
			if off := quantileSorted(want, q.q); off != q.got {
				t.Fatalf("step %d: %s = %g, offline sort = %g (n=%d)", step, q.name, q.got, off, len(want))
			}
		}
	}

	for step := 0; step < 400; step++ {
		// Advance the clock irregularly: most steps stay inside the
		// current sub-window, some cross one boundary, and occasionally
		// jump far enough to wrap the whole ring or leave idle gaps.
		switch {
		case step%37 == 0:
			*now += width * int64(rng.Intn(2*sub+1)) // idle gap / full wrap
		case step%5 == 0:
			*now += width // exactly one rotation boundary
		default:
			*now += rng.Int63n(width / 4)
		}
		v := rng.Float64() * 150
		h.Observe(v)
		log = append(log, obsAt{*now, v})
		check(step)
	}
}

// TestWindowReservoirOverflowFallsBackToBuckets verifies the inexact
// path: once a sub-window overflows its raw-sample cap the merge
// reports Exact=false and quantiles come from bucket upper bounds.
func TestWindowReservoirOverflowFallsBackToBuckets(t *testing.T) {
	now := fakeClock(t)
	*now = int64(time.Hour)
	bounds := []float64{1, 5, 25, 100}
	h := NewRegistry().HistogramVec("x", "", bounds, WindowOptions{
		SubWindows: 2, Width: time.Second, SampleCap: 8,
	}).With()
	for i := 0; i < 100; i++ {
		h.Observe(3) // all land in the le=5 bucket
	}
	w := h.Window()
	if w.Exact {
		t.Fatal("expected inexact window after reservoir overflow")
	}
	if w.Count != 100 {
		t.Fatalf("window count = %d, want 100", w.Count)
	}
	for _, q := range []float64{w.P50, w.P90, w.P99} {
		if q != 5 {
			t.Fatalf("bucket-fallback quantile = %g, want upper bound 5", q)
		}
	}
}

// TestLiveQuantileCachesPerRotation checks that LiveQuantile serves the
// memoized merge within one sub-window and refreshes it after rotation.
func TestLiveQuantileCachesPerRotation(t *testing.T) {
	now := fakeClock(t)
	*now = int64(time.Hour)
	h := NewRegistry().HistogramVec("x", "", []float64{1, 10, 100, 1000}, WindowOptions{
		SubWindows: 4, Width: time.Second,
	}).With()
	h.Observe(10)
	p99, n := h.LiveQuantile(0.99)
	if p99 != 10 || n != 1 {
		t.Fatalf("LiveQuantile = (%g, %d), want (10, 1)", p99, n)
	}
	// While the window is still filling, count growth refreshes the
	// cache — a quantile snapshotted off the first samples must not go
	// stale for a whole rotation (the flight recorder's p99-outlier
	// predicate would otherwise sit on it).
	h.Observe(90)
	if p99, n := h.LiveQuantile(0.99); p99 != 90 || n != 2 {
		t.Fatalf("LiveQuantile while filling = (%g, %d), want refreshed (90, 2)", p99, n)
	}
	// Once populated, observations inside the same sub-window that grow
	// the count by less than 25% see the cached view; crossing a
	// rotation boundary refreshes it. With 99×10 and one 90, the
	// nearest-rank p99 of 100 samples is 10; adding one 500 (1% growth)
	// stays invisible until the rotation, after which the 101-sample
	// nearest-rank p99 is 90.
	for i := 0; i < 98; i++ {
		h.Observe(10)
	}
	if p99, n := h.LiveQuantile(0.99); p99 != 10 || n != 100 {
		t.Fatalf("LiveQuantile after bulk fill = (%g, %d), want refreshed (10, 100)", p99, n)
	}
	h.Observe(500)
	if p99, n := h.LiveQuantile(0.99); p99 != 10 || n != 100 {
		t.Fatalf("LiveQuantile within window = (%g, %d), want cached (10, 100)", p99, n)
	}
	*now += int64(time.Second)
	if p99, _ := h.LiveQuantile(0.99); p99 != 90 {
		t.Fatalf("LiveQuantile after rotation = %g, want 90", p99)
	}
}

// TestFamilyWindowMergesSeries checks the family-wide trailing view: the
// merge of every series' window equals an offline sort over the union of
// their in-window observations, and aged-out sub-windows drop out of it.
func TestFamilyWindowMergesSeries(t *testing.T) {
	now := fakeClock(t)
	*now = int64(time.Hour)
	hv := NewRegistry().HistogramVec("lat", "", []float64{1, 10, 100},
		WindowOptions{SubWindows: 2, Width: time.Second}, "model")
	if w := hv.Window(); w == nil || w.Count != 0 || w.P99 != 0 {
		t.Fatalf("empty family window = %+v, want a zero-count view", w)
	}
	hv.With("stale").Observe(1000) // ages out below
	*now += 2 * int64(time.Second)
	var all []float64
	for i := 1; i <= 40; i++ {
		v := float64(i)
		hv.With([]string{"a", "b", "c"}[i%3]).Observe(v)
		all = append(all, v)
	}
	w := hv.Window()
	if w.Count != uint64(len(all)) || !w.Exact {
		t.Fatalf("family window count %d exact %v, want %d exact", w.Count, w.Exact, len(all))
	}
	for _, q := range []struct{ q, got float64 }{{0.50, w.P50}, {0.90, w.P90}, {0.95, w.P95}, {0.99, w.P99}} {
		if want := quantileSorted(all, q.q); q.got != want {
			t.Errorf("family p%g = %g, offline = %g", 100*q.q, q.got, want)
		}
	}
	// Unwindowed families have no trailing view.
	if w := NewRegistry().HistogramVec("x", "", nil, WindowOptions{}).Window(); w != nil {
		t.Fatalf("unwindowed family window = %+v, want nil", w)
	}
}

// TestGaugeWindowMax verifies the windowed gauge's trailing maximum and
// that stale sub-windows age out.
func TestGaugeWindowMax(t *testing.T) {
	now := fakeClock(t)
	*now = int64(time.Hour)
	gv := NewRegistry().GaugeVec("occ", "occupancy", WindowOptions{SubWindows: 2, Width: time.Second}, "device")
	g := gv.With("d0")
	g.Set(100)
	g.Set(40)
	*now += int64(time.Second)
	g.Set(60)
	fam := gv.snapshot(*now)
	w := fam.Series[0].GaugeWindow
	if w == nil || !w.Observed || w.Max != 100 {
		t.Fatalf("trailing max = %+v, want 100 observed", w)
	}
	if fam.Series[0].Gauge != 60 {
		t.Fatalf("last value = %g, want 60", fam.Series[0].Gauge)
	}
	// Two seconds later the 100 has aged out; only the 60 remains
	// visible for one more window, then nothing.
	*now += int64(time.Second)
	if w := gv.snapshot(*now).Series[0].GaugeWindow; w.Max != 60 {
		t.Fatalf("after aging, trailing max = %g, want 60", w.Max)
	}
	*now += 2 * int64(time.Second)
	if w := gv.snapshot(*now).Series[0].GaugeWindow; w.Observed {
		t.Fatalf("after full aging, window still observed: %+v", w)
	}
}

// TestVecIdentityAndOverflow checks, on every family kind, resolve-once
// identity (same labels → same instrument), the padding or truncation of
// a miscounted With call, snapshot ordering, and the cardinality cap
// collapsing into a catch-all series of the family's own kind.
func TestVecIdentityAndOverflow(t *testing.T) {
	now := fakeClock(t)
	*now = int64(time.Hour)
	win := WindowOptions{SubWindows: 2, Width: time.Second}
	bounds := []float64{1, 10}
	for _, tc := range []struct {
		kind string
		// with resolves a labelset on family "f" and records one
		// observation through the handle it returns.
		with func(r *Registry, values ...string) any
		// other checks the catch-all point p after n observations.
		other func(t *testing.T, r *Registry, fam FamilyData, p SeriesPoint, n uint64)
	}{
		{"counter", func(r *Registry, values ...string) any {
			c := r.CounterVec("f", "", "model", "outcome").With(values...)
			c.Inc()
			return c
		}, func(t *testing.T, _ *Registry, _ FamilyData, p SeriesPoint, n uint64) {
			if p.Counter != n {
				t.Errorf("catch-all count = %d, want %d", p.Counter, n)
			}
		}},
		{"gauge", func(r *Registry, values ...string) any {
			g := r.GaugeVec("f", "", win, "model", "outcome").With(values...)
			g.Set(7)
			return g
		}, func(t *testing.T, _ *Registry, _ FamilyData, p SeriesPoint, _ uint64) {
			if w := p.GaugeWindow; p.Gauge != 7 || w == nil || !w.Observed || w.Max != 7 {
				t.Errorf("catch-all gauge = %g, window %+v; want 7 with a trailing max of 7", p.Gauge, w)
			}
		}},
		{"histogram", func(r *Registry, values ...string) any {
			h := r.HistogramVec("f", "", bounds, win, "model", "outcome").With(values...)
			h.Observe(5)
			return h
		}, func(t *testing.T, r *Registry, fam FamilyData, p SeriesPoint, n uint64) {
			if p.Hist == nil || p.Hist.Count != n || !slices.Equal(p.Hist.Bounds, bounds) {
				t.Errorf("catch-all histogram = %+v, want %d observations over bounds %v", p.Hist, n, bounds)
			}
			if p.Window == nil || p.Window.Count != n {
				t.Errorf("catch-all window = %+v, want %d observations", p.Window, n)
			}
			var all uint64
			for _, s := range fam.Series {
				all += s.Hist.Count
			}
			if w := r.HistogramVec("f", "", nil, WindowOptions{}).Window(); w.Count != all {
				t.Errorf("family window count = %d, want every series' %d", w.Count, all)
			}
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			r := NewRegistry()
			a := tc.with(r, "m4", "done")
			if b := tc.with(r, "m4", "done"); a != b {
				t.Fatal("same labelset resolved to different series")
			}
			tc.with(r, "m7", "shed")
			// A miscounted call is padded with "" or truncated to the
			// family's keys, landing on one fixed series.
			if tc.with(r, "m4") != tc.with(r, "m4", "") {
				t.Error(`With("m4") did not land on ("m4", "")`)
			}
			if tc.with(r) != tc.with(r, "", "") {
				t.Error(`With() did not land on ("", "")`)
			}
			if tc.with(r, "m4", "done", "extra") != a {
				t.Error(`With("m4", "done", "extra") did not land on ("m4", "done")`)
			}

			// Blow past the cap; extras must collapse into _other, bounded.
			const created, extra = 4, 50
			for i := 0; i < MaxSeriesPerVec-created+extra; i++ {
				tc.with(r, "m", fmt.Sprint(i))
			}
			fam := r.Families()[0]
			if fam.Kind != tc.kind || len(fam.Series) != MaxSeriesPerVec+1 || fam.Overflow != extra {
				t.Fatalf("%s family: %d series, overflow %d; want %s with %d (+catch-all), overflow %d",
					fam.Kind, len(fam.Series), fam.Overflow, tc.kind, MaxSeriesPerVec, extra)
			}
			i := slices.IndexFunc(fam.Series, func(p SeriesPoint) bool {
				return slices.Equal(p.Values, []string{overflowLabel, overflowLabel})
			})
			if i < 0 {
				t.Fatal("no catch-all series")
			}
			tc.other(t, r, fam, fam.Series[i], extra)
			if !sort.SliceIsSorted(fam.Series, func(i, j int) bool {
				return strings.Join(fam.Series[i].Values, "\x1f") < strings.Join(fam.Series[j].Values, "\x1f")
			}) {
				t.Fatal("family series not sorted by label values")
			}
		})
	}

	// Nil-safety: a nil registry's family chain is all no-ops.
	var nilReg *Registry
	nilReg.CounterVec("x", "").With("a").Inc()
	nilReg.CounterVec("x", "").Each(func([]string, uint64) { t.Fatal("nil family has series") })
	nilReg.GaugeVec("y", "", WindowOptions{}).With().Set(1)
	nilReg.HistogramVec("z", "", nil, WindowOptions{}).With().Observe(1)
	if w := nilReg.HistogramVec("z", "", nil, WindowOptions{}).Window(); w != nil {
		t.Fatalf("nil family window = %+v", w)
	}
}

// TestFamilyNameIsOneKind checks that a name is one family: asking for
// it again as the same kind returns that family, and as another kind
// panics, naming the family and its kind, instead of exporting two TYPE
// blocks for one name.
func TestFamilyNameIsOneKind(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("x", "")
	cv.With().Inc()
	if r.CounterVec("x", "") != cv {
		t.Fatal("same name and kind resolved to a different family")
	}
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		r.GaugeVec("x", "", WindowOptions{}).With().Set(1)
	}()
	if !strings.Contains(msg, `"x"`) || !strings.Contains(msg, "counter") {
		t.Errorf("registering counter x as a gauge: recovered %q, want a panic naming x and counter", msg)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, &Snapshot{Families: r.Families()}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "# TYPE x "); n != 1 {
		t.Fatalf("exposition has %d TYPE lines for x, want 1:\n%s", n, b.String())
	}
}

// TestVecWithHitAllocatesNothing checks that resolving an existing
// labelset allocates nothing, so a site that only knows its labelset at
// the event (a request's outcome) can call With per event instead of
// keeping its own handle cache.
func TestVecWithHitAllocatesNothing(t *testing.T) {
	cv := NewRegistry().CounterVec("outcomes", "", "model", "shard", "outcome")
	model, shard, outcome := "vww", "m4-256k", "done"
	want := cv.With(model, shard, outcome)
	var got *Counter
	allocs := testing.AllocsPerRun(1000, func() {
		got = cv.With(model, shard, outcome)
	})
	if got != want {
		t.Fatal("warm With resolved a different series")
	}
	if allocs != 0 {
		t.Errorf("warm 3-key With allocates %v times per call, want 0", allocs)
	}
}

// TestPrometheusLabeledExposition covers HELP lines, label rendering,
// label-value escaping, and the windowed companion families.
func TestPrometheusLabeledExposition(t *testing.T) {
	now := fakeClock(t)
	*now = int64(time.Hour)
	tr := New(Options{})
	tr.Registry().CounterVec("plain_total", "").With().Add(2)
	cv := tr.Registry().CounterVec("vmcu_outcomes_total", "Terminal outcomes.", "model", "outcome")
	cv.With(`we"ird\mo`+"\n"+`del`, "done").Add(5)
	hv := tr.Registry().HistogramVec("vmcu_latency_ms", "Request latency.", []float64{1, 10},
		WindowOptions{SubWindows: 2, Width: time.Second}, "model")
	hv.With("m4").Observe(4)

	var b strings.Builder
	if err := WritePrometheus(&b, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP plain_total ",
		"# HELP vmcu_outcomes_total Terminal outcomes.\n# TYPE vmcu_outcomes_total counter",
		`vmcu_outcomes_total{model="we\"ird\\mo\ndel",outcome="done"} 5`,
		"# HELP vmcu_latency_ms Request latency.",
		`vmcu_latency_ms_bucket{model="m4",le="10"} 1`,
		`vmcu_latency_ms_sum{model="m4"} 4`,
		"# TYPE vmcu_latency_ms_window gauge",
		`vmcu_latency_ms_window{model="m4",quantile="0.99"} 4`,
		`vmcu_latency_ms_window_rps{model="m4"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestChromeSeriesTimestamps verifies counter events sit on the series'
// declared time base rather than the sample index.
func TestChromeSeriesTimestamps(t *testing.T) {
	tr := New(Options{})
	// 5 samples across [1ms, 2ms] since epoch → 0.25ms spacing.
	tr.RecordSeriesSpan("pool_bytes", "d0", "bytes", int64(time.Millisecond), int64(2*time.Millisecond), []int{1, 2, 3, 4, 5})
	var b strings.Builder
	if err := WriteChromeTrace(&b, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"ts": 1000`, `"ts": 1250`, `"ts": 1500`, `"ts": 1750`, `"ts": 2000`} {
		if !strings.Contains(out, want) {
			t.Fatalf("series timestamps missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"ts": 3,`) {
		t.Fatal("found index-based series timestamp in export")
	}
}
