package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
)

// specMetric is one metric BENCHMARK.json names.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics it
// must emit, their units, directions and regression bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return &s, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// check reports every spec metric of the run's kind that the run did not
// emit with the spec's unit, and every name outside the allowed charset.
func (s *spec) check(m metricSet, trace bool) []string {
	var problems []string
	list := s.EndToEnd
	if trace {
		list = s.PerLayer
	}
	for _, sm := range list {
		got, ok := m[sm.Name]
		switch {
		case !nameRE.MatchString(sm.Name):
			problems = append(problems, fmt.Sprintf("metric name %q has characters outside [A-Za-z0-9_.-]", sm.Name))
		case !ok:
			problems = append(problems, fmt.Sprintf("metric %s was not emitted", sm.Name))
		case got.Unit != sm.Unit:
			problems = append(problems, fmt.Sprintf("metric %s emitted in %s, defined in %s", sm.Name, got.Unit, sm.Unit))
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			problems = append(problems, fmt.Sprintf("metric %s is %v", sm.Name, got.Value))
		}
	}
	return problems
}

// readResults reads the JSON lines -o appends.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges one end-to-end metric between a base and a new set of
// runs (choosing-metrics guide §6.5): "worse" beyond the bound is a
// regression, unless the run-to-run spread of either side is wider than
// the bound, which leaves it unresolved, unless every new run reads
// better than every base run.
func verdict(sm specMetric, base, head []float64) (delta float64, v string) {
	mb, mh := median(append([]float64(nil), base...)), median(append([]float64(nil), head...))
	sign := 1.0
	if sm.Better == "higher" {
		sign = -1
	}
	if mb != 0 {
		delta = sign * (mh - mb) / math.Abs(mb)
	} else if mh != mb {
		delta = sign * math.Inf(1)
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, b := range base {
		for _, h := range head {
			if sign*(h-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return delta, "better"
	case spread(base) > sm.Bound || spread(head) > sm.Bound:
		return delta, "unresolved"
	case delta > sm.Bound:
		return delta, "REGRESSION"
	}
	return delta, "ok"
}

// compare prints, per workload, the medians of both sets of runs and the
// delta of each metric ("worse" is positive), judging the end-to-end
// ones against their bounds. It reports whether any regressed.
func compare(w io.Writer, s *spec, base, head []result) bool {
	group := func(rs []result) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	gb, gh := group(base), group(head)
	var names []string
	for n := range gb {
		if gh[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	regressed := false
	for _, wl := range names {
		fmt.Fprintf(w, "%s\n  %-30s %14s %14s %9s %7s %7s  %s\n", wl, "metric", "base", "head", "delta", "bound", "spread", "verdict")
		row := func(sm specMetric, judged bool) {
			b, h := gb[wl][sm.Name], gh[wl][sm.Name]
			if len(b) == 0 || len(h) == 0 {
				return
			}
			delta, v := verdict(sm, b, h)
			bound := fmt.Sprintf("%.3f", sm.Bound)
			if !judged {
				v, bound = "", "-"
			}
			if v == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(w, "  %-30s %14.6g %14.6g %+8.2f%% %7s %6.1f%%  %s\n", sm.Name,
				median(append([]float64(nil), b...)), median(append([]float64(nil), h...)),
				100*delta, bound, 100*math.Max(spread(b), spread(h)), v)
		}
		for _, sm := range s.EndToEnd {
			row(sm, true)
		}
		for _, sm := range s.PerLayer {
			row(sm, false)
		}
	}
	return regressed
}
