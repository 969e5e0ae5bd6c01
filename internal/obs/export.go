package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Exporters. Two formats are supported:
//
//   - Chrome trace_event JSON (WriteChromeTrace): loadable in
//     chrome://tracing or Perfetto. Spans become complete ("X") events on
//     two process rows — pid 1 is the wall clock, pid 2 the simulated
//     device cycle clock (cycles plotted as microseconds) — with one
//     thread per device (tid 0 is the host). Recorded series become
//     counter ("C") events, so the Figure-1 pool-occupancy curve renders
//     as a chart. Every event's args carry span_id/parent_id/trace_id, so
//     a consumer can rebuild the exact span forest the tracer saw.
//   - Prometheus text exposition (WritePrometheus): the metric families —
//     counters, gauges, and histograms in the classic scrape format
//     (histogram buckets are cumulative with the "le" label),
//     deterministically ordered.

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// The two exported process rows.
const (
	wallPID  = 1 // wall-clock spans
	cyclePID = 2 // simulated device-cycle spans (cycles as microseconds)
)

// WriteChromeTrace writes the snapshot as Chrome trace_event JSON.
func WriteChromeTrace(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("obs: nil snapshot")
	}
	// Deterministic device → tid mapping: tid 0 is the host, devices get
	// 1..N in sorted order.
	devs := map[string]int{}
	var names []string
	for _, s := range snap.Spans {
		if s.Device != "" && devs[s.Device] == 0 {
			devs[s.Device] = -1
			names = append(names, s.Device)
		}
	}
	for _, sr := range snap.Series {
		if sr.Device != "" && devs[sr.Device] == 0 {
			devs[sr.Device] = -1
			names = append(names, sr.Device)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		devs[n] = i + 1
	}

	tr := chromeTrace{DisplayTimeUnit: "ms"}
	meta := func(pid int, procName string) {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": procName},
		})
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": "host"},
		})
		for _, n := range names {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: devs[n],
				Args: map[string]any{"name": n},
			})
		}
	}
	meta(wallPID, "wall clock")
	meta(cyclePID, "device cycles")

	for _, s := range snap.Spans {
		args := map[string]any{
			"span_id":   s.ID,
			"parent_id": s.Parent,
			"trace_id":  s.Trace,
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value()
		}
		tid := devs[s.Device]
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Kind, Phase: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: wallPID, TID: tid, Args: args,
		})
		if s.EndCycles > s.StartCycles {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: s.Name, Cat: s.Kind, Phase: "X",
				TS: s.StartCycles, Dur: s.EndCycles - s.StartCycles,
				PID: cyclePID, TID: tid, Args: args,
			})
		}
	}
	for _, sr := range snap.Series {
		key := sr.Name
		if sr.Unit != "" {
			key = sr.Name + " (" + sr.Unit + ")"
		}
		// Counter samples sit on the series' declared time base (Start +
		// i*Step nanos, same epoch as span Start/End) so the occupancy
		// curve lines up with the span timeline; a series without a
		// declared base (hand-built snapshots) falls back to 1µs spacing.
		step := sr.Step
		if step <= 0 {
			step = 1000
		}
		for i, v := range sr.Samples {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: sr.Name, Phase: "C",
				TS: float64(sr.Start+int64(i)*step) / 1e3, PID: wallPID, TID: devs[sr.Device],
				Args: map[string]any{key: v},
			})
		}
	}
	buf, err := json.MarshalIndent(&tr, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// promName sanitizes a metric name to the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text-format
// spec: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelPairs renders {k1="v1",...} for a labelset (plus any extra
// pre-rendered pairs like le="..."), "" when there are none.
func labelPairs(keys, values []string, extra ...string) string {
	if len(keys) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, `%s="%s"`, promName(k), escapeLabelValue(v))
	}
	for i, e := range extra {
		if i > 0 || len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteByte('}')
	return b.String()
}

// helpLine emits "# HELP name help", defaulting the help text so every
// family has a HELP line even when none was registered.
func helpLine(b *strings.Builder, name, help, kind string) {
	if help == "" {
		help = "vmcu " + kind + " (no help registered)"
	}
	help = strings.ReplaceAll(help, "\\", `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
}

// writeHistogramExposition renders one histogram series (cumulative le
// buckets, _sum, _count) under the given rendered label prefix.
func writeHistogramExposition(b *strings.Builder, name string, keys, values []string, h *HistogramData) {
	cum := uint64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			labelPairs(keys, values, fmt.Sprintf("le=%q", fmt.Sprintf("%g", bound))), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelPairs(keys, values, `le="+Inf"`), h.Count)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labelPairs(keys, values), h.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelPairs(keys, values), h.Count)
}

// WritePrometheus writes the snapshot's metric families as a
// Prometheus-style text exposition (deterministic order), each with HELP
// and TYPE lines. A family with no label keys exports plain unlabeled
// sample lines. Windowed families additionally expose their
// trailing-window view — for histograms
// `<name>_window{quantile="0.5|0.9|0.99"}` live quantiles plus
// `<name>_window_rps`, for gauges `<name>_window_max` — which is what a
// dashboard should plot for "now" instead of since-boot totals.
func WritePrometheus(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("obs: nil snapshot")
	}
	var b strings.Builder
	for i := range snap.Families {
		writeFamily(&b, &snap.Families[i])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFamily renders one labeled family, including the windowed
// companion families when trailing-window views are present.
func writeFamily(b *strings.Builder, f *FamilyData) {
	n := promName(f.Name)
	keys := f.Keys
	helpLine(b, n, f.Help, f.Kind)
	fmt.Fprintf(b, "# TYPE %s %s\n", n, f.Kind)
	switch f.Kind {
	case "counter":
		for _, s := range f.Series {
			fmt.Fprintf(b, "%s%s %d\n", n, labelPairs(keys, s.Values), s.Counter)
		}
	case "gauge":
		for _, s := range f.Series {
			fmt.Fprintf(b, "%s%s %g\n", n, labelPairs(keys, s.Values), s.Gauge)
		}
		if windowedGauges(f) {
			wn := n + "_window_max"
			helpLine(b, wn, "Trailing-window maximum of "+n, "gauge")
			fmt.Fprintf(b, "# TYPE %s gauge\n", wn)
			for _, s := range f.Series {
				if s.GaugeWindow == nil || !s.GaugeWindow.Observed {
					continue
				}
				fmt.Fprintf(b, "%s%s %g\n", wn, labelPairs(keys, s.Values), s.GaugeWindow.Max)
			}
		}
	case "histogram":
		for _, s := range f.Series {
			if s.Hist != nil {
				writeHistogramExposition(b, n, keys, s.Values, s.Hist)
			}
		}
		if windowedHists(f) {
			wn := n + "_window"
			helpLine(b, wn, "Trailing-window quantiles of "+n, "gauge")
			fmt.Fprintf(b, "# TYPE %s gauge\n", wn)
			for _, s := range f.Series {
				if s.Window == nil || s.Window.Count == 0 {
					continue
				}
				for _, qv := range []struct {
					q string
					v float64
				}{{"0.5", s.Window.P50}, {"0.9", s.Window.P90}, {"0.99", s.Window.P99}} {
					fmt.Fprintf(b, "%s%s %g\n", wn,
						labelPairs(keys, s.Values, fmt.Sprintf("quantile=%q", qv.q)), qv.v)
				}
			}
			rn := n + "_window_rps"
			helpLine(b, rn, "Trailing-window event rate of "+n+" per second", "gauge")
			fmt.Fprintf(b, "# TYPE %s gauge\n", rn)
			for _, s := range f.Series {
				if s.Window == nil {
					continue
				}
				fmt.Fprintf(b, "%s%s %g\n", rn, labelPairs(keys, s.Values), s.Window.RatePerSec)
			}
		}
	}
}

func windowedGauges(f *FamilyData) bool {
	for _, s := range f.Series {
		if s.GaugeWindow != nil {
			return true
		}
	}
	return false
}

func windowedHists(f *FamilyData) bool {
	for _, s := range f.Series {
		if s.Window != nil {
			return true
		}
	}
	return false
}

// WriteFlightChrome dumps a flight snapshot's retained span trees as
// Chrome trace JSON. Each retained root carries a flight_reason attr so
// the retention cause survives into the rendered timeline (and the
// vmcu-trace -flight summarizer groups by it).
func WriteFlightChrome(w io.Writer, fs *FlightSnapshot) error {
	if fs == nil {
		return fmt.Errorf("obs: nil flight snapshot")
	}
	snap := &Snapshot{}
	for _, ft := range fs.Traces {
		for _, s := range ft.Spans {
			if s.Parent == 0 {
				s.Attrs = append(append([]Attr(nil), s.Attrs...), Str("flight_reason", ft.Reason))
			}
			snap.Spans = append(snap.Spans, s)
		}
	}
	sort.SliceStable(snap.Spans, func(i, j int) bool {
		return snap.Spans[i].Start < snap.Spans[j].Start
	})
	snap.TotalSpans = uint64(len(snap.Spans))
	return WriteChromeTrace(w, snap)
}
