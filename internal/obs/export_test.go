package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// decodeTrace parses exported Chrome trace JSON back into its event list.
func decodeTrace(t *testing.T, buf []byte) []map[string]any {
	t.Helper()
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &top); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	return top.TraceEvents
}

func TestChromeTraceExport(t *testing.T) {
	tr := New(Options{})
	root := tr.Start("request", KindRequest)
	unit := tr.StartChild(root, "B1(fused)", KindUnit)
	unit.SetDevice("m4")
	unit.SetCycles(0, 1234)
	unit.Attr(Float("cycles", 1234), Int("peak_bytes", 4096))
	unit.End()
	root.End()
	tr.RecordSeriesSpan("pool_bytes", "m4", "bytes", 0, 2000, []int{10, 20, 15})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())

	var wallX, cycleX, counters, metas int
	var unitEvent map[string]any
	for _, e := range events {
		switch e["ph"] {
		case "X":
			if int(e["pid"].(float64)) == wallPID {
				wallX++
				if e["name"] == "B1(fused)" {
					unitEvent = e
				}
			} else {
				cycleX++
			}
		case "C":
			counters++
		case "M":
			metas++
		}
	}
	if wallX != 2 {
		t.Fatalf("wall-clock X events = %d, want 2", wallX)
	}
	if cycleX != 1 {
		t.Fatalf("cycle-clock X events = %d, want 1 (only the unit span has cycles)", cycleX)
	}
	if counters != 3 {
		t.Fatalf("counter events = %d, want 3 (one per series sample)", counters)
	}
	if metas == 0 {
		t.Fatal("no metadata (process/thread name) events")
	}
	if unitEvent == nil {
		t.Fatal("unit span missing from export")
	}
	args := unitEvent["args"].(map[string]any)
	if args["cycles"].(float64) != 1234 {
		t.Fatalf("unit span lost its cycles attribute: %v", args)
	}
	if args["peak_bytes"].(float64) != 4096 {
		t.Fatalf("unit span lost its peak_bytes attribute: %v", args)
	}
	// The span tree must be reconstructible from the args.
	if args["parent_id"].(float64) == 0 || args["trace_id"].(float64) == 0 {
		t.Fatalf("unit span not connected to its parent: %v", args)
	}
	if unitEvent["cat"] != KindUnit {
		t.Fatalf("span kind not exported as category: %v", unitEvent["cat"])
	}
}

func TestChromeTraceDeviceThreads(t *testing.T) {
	tr := New(Options{})
	for _, dev := range []string{"m7-1", "m4-0"} {
		s := tr.Start("execute", KindStage)
		s.SetDevice(dev)
		s.End()
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Devices map to tids 1..N in sorted order: m4-0 -> 1, m7-1 -> 2.
	tidByDev := map[string]int{}
	for _, e := range decodeTrace(t, buf.Bytes()) {
		if e["ph"] == "M" && e["name"] == "thread_name" && int(e["pid"].(float64)) == wallPID {
			args := e["args"].(map[string]any)
			tidByDev[args["name"].(string)] = int(e["tid"].(float64))
		}
	}
	if tidByDev["host"] != 0 || tidByDev["m4-0"] != 1 || tidByDev["m7-1"] != 2 {
		t.Fatalf("device thread mapping wrong: %v", tidByDev)
	}
}

func TestPrometheusExport(t *testing.T) {
	// Families without label keys export plain unlabeled sample lines.
	tr := New(Options{})
	reg := tr.Registry()
	reg.CounterVec("vmcu_serve_completed", "").With().Add(7)
	reg.GaugeVec("vmcu_serve_queue_depth", "", WindowOptions{}).With().Set(3)
	h := reg.HistogramVec("vmcu_serve_latency_ms", "", []float64{10, 100}, WindowOptions{}).With()
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE vmcu_serve_completed counter\nvmcu_serve_completed 7\n",
		"# TYPE vmcu_serve_queue_depth gauge\nvmcu_serve_queue_depth 3\n",
		"# TYPE vmcu_serve_latency_ms histogram\n",
		"vmcu_serve_latency_ms_bucket{le=\"10\"} 1\n",
		"vmcu_serve_latency_ms_bucket{le=\"100\"} 2\n", // cumulative
		"vmcu_serve_latency_ms_bucket{le=\"+Inf\"} 3\n",
		"vmcu_serve_latency_ms_sum 555\n",
		"vmcu_serve_latency_ms_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	if got := promName("netplan.cache hits/total"); got != "netplan_cache_hits_total" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("9lives"); got != "_lives" {
		t.Fatalf("promName = %q (leading digit must be replaced)", got)
	}
}
