package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRequestStreamIsDeterminedBySeed(t *testing.T) {
	const n = 8000
	for name, w := range workloads {
		a, b, c := make([]request, n), make([]request, n), make([]request, n)
		second := 0
		for i := range a {
			a[i], b[i], c[i] = w.request(7, uint64(i)), w.request(7, uint64(i)), w.request(8, uint64(i))
			if a[i].seed < 0 || a[i].seed >= 1<<31 {
				t.Fatalf("%s: request %d has weight seed %d outside [0, 2^31)", name, i, a[i].seed)
			}
			if a[i].model != w.models[0] {
				second++
			}
		}
		same := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two draws of seed 7: %v, %v", name, i, a[i], b[i])
			}
			if a[i] == c[i] {
				same++
			}
		}
		if same > n/100 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of %d requests", name, same, n)
		}
		// The floods mix the second model in 1 time in 8.
		if len(w.models) == 1 && second != 0 {
			t.Errorf("%s: %d requests for a model the workload does not serve", name, second)
		}
		if len(w.models) == 2 && (second < n/8-n/40 || second > n/8+n/40) {
			t.Errorf("%s: %d of %d requests for %s, want about 1 in 8", name, second, n, w.models[1])
		}
	}
}

// A short run of each workload emits every metric BENCHMARK.json names,
// with its unit, in both kinds of run.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []int{0, 1} {
			var out, errOut bytes.Buffer
			args := []string{"-workload", wl.Name, "-seed", "3", "-seconds", "1", "-trace", strconv.Itoa(trace),
				"-spec", filepath.Join("..", "BENCHMARK.json"), "-trace-out", filepath.Join(t.TempDir(), "trace.json")}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", wl.Name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var s summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatalf("%s trace=%d: last line is not the summary: %v", wl.Name, trace, err)
			}
			want := sp.EndToEnd
			if trace == 1 {
				want = sp.PerLayer
			}
			if !s.Correct || s.Attempted < 1 || len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%d: correct=%v attempted=%d with %d metrics, want %d",
					wl.Name, trace, s.Correct, s.Attempted, len(s.Metrics), len(want))
			}
			for _, sm := range want {
				if got, ok := s.Metrics[sm.Name]; !ok || got.Unit != sm.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", wl.Name, trace, sm.Name, got, sm.Unit)
				}
			}
		}
	}
}
