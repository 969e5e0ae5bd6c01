// Command vmcubench is the repository's benchmark. It drives the serving
// plane and the layers under it (internal/serve, netplan, graph, kernels,
// cost, obs) through their public functions, on four named workloads, and
// checks every output it measures.
//
// Usage, from the repository root (run.sh builds the program into
// .bench_build first):
//
//	bash vmcubench/run.sh -workload verify-vww -seed 1 -seconds 20 -trace 0
//	bash vmcubench/run.sh -workload admit-flood -seed 2 -seconds 20 -trace 1 -o runs.jsonl
//	bash vmcubench/run.sh -compare base.jsonl head.jsonl
//
// A run prints every metric with its unit and sample count, then, as its
// last line, one JSON object with the keys correct, attempted, failed and
// metrics; it exits 1 when any output is wrong. -o appends the run's full
// result as one JSON line. -compare reads two such files and prints, per
// workload, both medians and the delta of each metric; an end-to-end delta
// worse than its BENCHMARK.json bound is a REGRESSION (exit 1), unless
// either side's run-to-run spread (interquartile range over median) is
// wider than the bound, which is "unresolved".
//
// # Workloads
//
// Each draws its request stream (model mix and weight seeds) from -seed.
// Load comes from this one process, from at most two goroutines.
//
//   - verify-vww: closed loop, two clients, ExecVerify, VWW with its
//     min-peak plan, on two Cortex-M4 devices (one shard). A request is 13
//     small units (8 modules, 5 streamed seams, no split), so per-request
//     overhead in graph, mcu and kernels dominates: device build, shadow
//     tags, golden reference, GC. Admission costs almost nothing.
//   - verify-imagenet: the same loop and fleet on ImageNet: large-tensor
//     arithmetic, the split region's halo recompute (B1+B2 in 8 patches),
//     one unfused module and one seam. Per-request overhead is amortised, so
//     a per-unit-overhead fix moves verify-vww far more than this workload,
//     and a kernel-arithmetic fix does the opposite.
//   - admit-flood: open loop, one generator and one collector goroutine, a
//     fixed 50,000 requests/s, ExecDryRun, VWW:ImageNet 7:1, both models
//     registered with their Pareto frontiers, on a Cortex-M4 + Cortex-M7
//     fleet (two shards, 8 slots each, queue cap 4096, degrade depth 512,
//     100 ms admission deadline), no tracer. No kernel runs: serve does all
//     the work (queue, ledger, shard routing, variant pick, metrics).
//   - admit-flood-ops: the same traffic with the production ops
//     configuration: tracer, flight recorder and fixed 1% head sampling.
//     The gap between the two floods is the tracing tax; moving cost
//     between serve's own counters and the obs families shows as a gain
//     on one flood and a loss on the other.
//
// # End-to-end metrics (-trace 0, no benchmark tracing)
//
//   - setup_s: median of five cold set-ups, each a fresh server and plan
//     cache, model registration, and one warm-up request per model.
//   - throughput_rps: requests completed correctly per second: inside the
//     timed phase (open loop), or summed over clients, each client's
//     completions over the time to its last one (closed loop).
//   - latency_p50_ms, latency_tail_ms: from Submit to Result (closed
//     loop) or from the due time to completion (open loop). The tail is
//     the highest percentile with ten samples beyond it, capped at p90
//     (beyond it the floods read host stalls); when every 1-s window has
//     ten samples beyond that percentile on its own, it is the median over
//     windows of each window's reading, so a burst of host load moves one
//     window.
//   - ok_ratio: requests completed correctly over requests attempted; a
//     shed, rejected or failed request counts against it.
//   - alloc_kb_per_req: heap bytes allocated during the timed phase, per
//     attempted request.
//   - rss_peak_mb: the process's peak resident set; each run is its own
//     process.
//   - peak_kb: the largest reservation any completed request held; for
//     the verify workloads it must equal the plan's Eq. 2 peak.
//
// # Traced run (-trace 1)
//
// Spans go to a tracer of the benchmark's own and are exported with
// obs.WriteChromeTrace (-trace-out). The run first solves each model's
// plan in fresh caches and enumerates its Pareto frontier, then replays
// the first requests of the seed stream (at most 20, within two fifths of
// -seconds) serially on one goroutine, with one span per call:
// netplan.Cache.Plan, netplan.Run (whose per-unit spans netplan records
// under it), each unit again through graph.RunModuleWithPlan,
// RunModuleUnfused, RunSplitRegion or RunSeam with the seeds netplan.Run
// uses, kernels.GoldenBottleneck per module on inputs of the same shapes,
// and netplan.EstimatePlan. The rest of -seconds serves the workload's
// load with the timed Submit call of every request (every 100th in the
// floods) recorded as a span tree whose queue and exec stages come from
// the Result. The per-layer metrics are read back from these spans; a
// span's self time is its duration minus the part its children cover.
// Each layer's metrics, and the end-to-end metric they should move:
//
//   - serve.*: Submit call, queue wait and execution time from the traced
//     requests, plus outcome counts and peak pool use. They move the
//     floods' latency; on the verify workloads serve is a small share.
//   - netplan.*: cache hit and cold solve times, Pareto enumeration,
//     netplan.Run time, its self time (orchestration outside the units)
//     and its parallel speedup (serial unit time over Run time). They
//     move setup_s on the floods and latency on the verify workloads.
//   - graph.*, kernels.*, mcu.*: unit times, units and heap per unit,
//     the golden reference's time and share of unit time, simulated
//     cycles, MACs, RAM bytes and energy per request, and host time per
//     simulated cycle and per RAM byte. The ratios move verify
//     throughput; the counts are the device metrics and must not move.
//   - cost.*: EstimatePlan time and the cost model's cycle error, which
//     must be 0 (Invariant 7).
//   - obs.*: head-sampler decisions and flight-recorder retention, live
//     only on admit-flood-ops.
//   - bench.*: how late the generator ran, offered and attempted rates,
//     and process CPU per request: if lag grows, the generator is being
//     measured, not the server.
//
// CALIBRATION.md records the spread of every end-to-end metric and how
// its bound was chosen.
//
// # Correctness gates
//
// A run is wrong, and exits 1, when a verify Result is not verified, has
// shadow-memory violations, reserves another peak than the plan's, or
// reports device counters other than the cost model's prediction; when a
// replayed unit's counters differ from netplan.Run's for the same seed, or
// from the served request's; when the cost model's cycles differ from the
// executed ones; when a device pool was over-committed; when the server's
// counters do not account for every attempted request exactly once; or
// when a metric BENCHMARK.json names is not emitted with its unit.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one measured value with its unit and the number of samples
// (or requests) it rests on.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// result is one run, as -o records it.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     int       `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	Problems  []string  `json:"problems,omitempty"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vmcubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated request stream")
	seconds := fs.Float64("seconds", 20, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "0: untraced run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/<workload>.trace.json)")
	out := fs.String("o", "", "append the run's full result as one JSON line to this file")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition whose metrics the run must emit")
	cmp := fs.Bool("compare", false, "compare two files of -o results: -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vmcubench:", err)
		return 1
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		base, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		head, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compare(stdout, sp, base, head) {
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames()))
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if dur <= 0 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	res := &result{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Metrics: metricSet{}}
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", w.name+".trace.json")
		}
		err = tracedRun(res, w, dur, path)
	} else {
		err = untracedRun(res, w, dur)
	}
	if err != nil {
		return fail(err)
	}
	res.Problems = append(res.Problems, sp.check(res.Metrics, *trace == 1)...)
	res.Correct = len(res.Problems) == 0
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return fail(err)
		}
	}
	report(stdout, sp, res)
	if !res.Correct {
		for _, p := range res.Problems {
			fmt.Fprintln(stderr, "vmcubench: wrong output:", p)
		}
		return 1
	}
	return 0
}

// report prints every metric with its unit and count, then the summary
// line of the metrics the spec lists for this kind of run.
func report(w io.Writer, sp *spec, res *result) {
	fmt.Fprintf(w, "vmcubench %s seed=%d seconds=%g trace=%d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-30s %16.6g %-9s n=%d %s\n", n, m.Value, m.Unit, m.N, m.Note)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	list := sp.EndToEnd
	if res.Trace == 1 {
		list = sp.PerLayer
	}
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]summaryValue{}}
	for _, sm := range list {
		if m, ok := res.Metrics[sm.Name]; ok {
			s.Metrics[sm.Name] = summaryValue{Value: m.Value, Unit: m.Unit}
		}
	}
	buf, _ := json.Marshal(s) // plain numbers and strings always marshal
	fmt.Fprintf(w, "%s\n", buf)
}

func appendResult(path string, res *result) error {
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocs reads the process's cumulative heap allocation without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// usage reads the process's CPU time and peak resident set.
func usage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

// runStats sums a verified run's executed device counters.
func runStats(r *netplan.RunResult) mcu.Stats {
	var s mcu.Stats
	for _, u := range r.Modules {
		s.Add(u.Stats)
	}
	for _, u := range r.Seams {
		s.Add(u.Stats)
	}
	return s
}

// checker returns the per-request correctness check of a workload. A
// verify request must be verified with no violations, reserve exactly
// its plan's Eq. 2 peak, and report the device counters the cost model
// predicts (Invariant 7). A dry run has nothing to verify.
func (w workload) checker() (func(i uint64, res serve.Result) error, error) {
	if w.mode != serve.ExecVerify {
		return func(uint64, serve.Result) error { return nil }, nil
	}
	type expect struct {
		peak  int
		stats mcu.Stats
	}
	exp := map[string]expect{}
	for _, m := range w.models {
		net := networks[m]()
		np, err := netplan.Plan(net, netplan.Options{})
		if err != nil {
			return nil, err
		}
		est, err := netplan.EstimatePlan(mcu.CortexM4(), net, np)
		if err != nil {
			return nil, err
		}
		exp[m] = expect{peak: np.PeakBytes, stats: est.Executed}
	}
	return func(_ uint64, res serve.Result) error {
		e := exp[res.Model]
		switch {
		case res.Run == nil:
			return errors.New("no verified run")
		case !res.Run.AllVerified || res.Run.Violations != 0:
			return fmt.Errorf("verified=%v violations=%d", res.Run.AllVerified, res.Run.Violations)
		case res.PeakBytes != e.peak:
			return fmt.Errorf("reserved %d bytes, the plan's peak is %d", res.PeakBytes, e.peak)
		}
		if got := runStats(res.Run); got != e.stats {
			return fmt.Errorf("device counters %+v, the cost model predicts %+v", got, e.stats)
		}
		return nil
	}, nil
}

// load runs the workload's traffic against s for dur.
func (w workload) load(s *serve.Server, seed int64, dur time.Duration,
	check func(uint64, serve.Result) error, sc *spanClock) *loadStats {
	if w.rate == 0 {
		return closedLoop(s, w, seed, dur, check, sc)
	}
	submit := func(i uint64) (func() (serve.Result, error), string, error) {
		rq := w.request(seed, i)
		tk, err := s.Submit(rq.model, serve.SubmitOptions{Seed: rq.seed})
		if err != nil {
			return nil, rq.model, err
		}
		return tk.Result, rq.model, nil
	}
	return openLoop(wallClock{}, w.rate, dur, submit, sc)
}

// serveProblems checks the serving invariants over the timed phase: no
// pool over-committed, and every attempted request accounted for exactly
// once by the server's counters.
func serveProblems(st *loadStats, before, after serve.Metrics) []string {
	var p []string
	if n := overCommits(after); n != 0 {
		p = append(p, fmt.Sprintf("%d device pool(s) over-committed", n))
	}
	d := func(a, b uint64) int { return int(a - b) }
	submitted := d(after.Submitted, before.Submitted)
	rejected := d(after.RejectedQueueFull, before.RejectedQueueFull)
	resolved := d(after.Completed, before.Completed) + d(after.Failed, before.Failed) +
		d(after.ShedDeadline, before.ShedDeadline) + d(after.Canceled, before.Canceled) +
		d(after.DeviceLost, before.DeviceLost)
	switch {
	case st.attempted != st.completed+st.shed+st.rejected+st.failed:
		p = append(p, fmt.Sprintf("attempted %d != completed %d + shed %d + rejected %d + failed %d",
			st.attempted, st.completed, st.shed, st.rejected, st.failed))
	case submitted+rejected != st.attempted:
		p = append(p, fmt.Sprintf("server took %d tickets and rejected %d of %d attempts", submitted, rejected, st.attempted))
	case resolved != submitted:
		p = append(p, fmt.Sprintf("server resolved %d of %d tickets", resolved, submitted))
	case rejected != st.rejected || d(after.ShedDeadline, before.ShedDeadline) != st.shed:
		p = append(p, fmt.Sprintf("server counted %d rejected and %d shed, the generator %d and %d",
			rejected, d(after.ShedDeadline, before.ShedDeadline), st.rejected, st.shed))
	}
	return p
}

func overCommits(m serve.Metrics) int {
	n := 0
	for _, d := range m.Devices {
		if d.PeakUsedBytes > d.CapacityBytes {
			n++
		}
	}
	return n
}

// untracedRun measures the end-to-end metrics.
func untracedRun(res *result, w workload, dur time.Duration) error {
	check, err := w.checker()
	if err != nil {
		return err
	}
	s, _, setupTimes, err := w.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	before := s.Metrics()
	alloc0 := heapAllocs()
	st := w.load(s, res.Seed, dur, check, nil)
	alloc := heapAllocs() - alloc0
	after := s.Metrics()
	if err := s.Close(); err != nil {
		return err
	}
	_, rssKB := usage()

	res.Attempted, res.Failed = st.attempted, st.attempted-st.completed
	res.Problems = append(append(res.Problems, st.bad...), serveProblems(st, before, after)...)
	m, att := res.Metrics, float64(max(st.attempted, 1))
	m.add("setup_s", "s", median(setupTimes), len(setupTimes))
	m.add("throughput_rps", "1/s", st.rps, st.completed)
	lat := st.latencies()
	m.add("latency_p50_ms", "ms", median(lat), len(lat))
	tail, q, n := tailLatency(st.windows)
	m["latency_tail_ms"] = metric{Value: tail, Unit: "ms", N: n, Note: fmt.Sprintf("p%.4g", 100*q)}
	m.add("ok_ratio", "ratio", float64(st.completed)/att, st.attempted)
	m.add("alloc_kb_per_req", "KB", float64(alloc)/1024/att, st.attempted)
	m.add("rss_peak_mb", "MB", float64(rssKB)/1024, 1)
	m.add("peak_kb", "KB", float64(st.maxPeak)/1024, st.completed)
	return nil
}

// traceCapacity holds every span a traced run records, so no per-layer
// number is read from a wrapped ring.
const traceCapacity = 1 << 18

// tracedRun measures the per-layer metrics and writes the Chrome trace.
func tracedRun(res *result, w workload, dur time.Duration, tracePath string) error {
	base, err := w.checker()
	if err != nil {
		return err
	}
	s, opsTr, _, err := w.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	tr := obs.New(obs.Options{Capacity: traceCapacity})
	start := time.Now()
	if err := coldPlans(tr, w); err != nil {
		_ = s.Close() // the planning error is the one to report
		return err
	}
	sums, problems, err := replay(tr, w, res.Seed, dur*2/5)
	if err != nil {
		_ = s.Close() // the replay error is the one to report
		return err
	}
	// The served requests with a replayed index must report the replayed
	// device counters.
	check := func(i uint64, r serve.Result) error {
		if err := base(i, r); err != nil {
			return err
		}
		if r.Run != nil && i < uint64(len(sums)) && runStats(r.Run) != sums[i] {
			return fmt.Errorf("served counters %+v, replayed %+v", runStats(r.Run), sums[i])
		}
		return nil
	}
	loadDur := max(dur-time.Since(start), dur/4)
	before := s.Metrics()
	cpu0, _ := usage()
	st := w.load(s, res.Seed, loadDur, check, newSpanClock(tr))
	cpu1, _ := usage()
	after := s.Metrics()
	if err := s.Close(); err != nil {
		return err
	}

	res.Attempted, res.Failed = st.attempted, st.attempted-st.completed
	res.Problems = append(append(append(res.Problems, problems...), st.bad...), serveProblems(st, before, after)...)
	snap := tr.Snapshot()
	m := res.Metrics
	layerMetrics(m, snap)
	if m["cost.model_error_ratio"].Value != 0 {
		res.Problems = append(res.Problems, "the cost model's cycles differ from the executed ones")
	}
	if m["mcu.violations"].Value != 0 {
		res.Problems = append(res.Problems, "replayed units report shadow-memory violations")
	}

	d := func(a, b uint64) float64 { return float64(a - b) }
	m.add("serve.completed", "count", d(after.Completed, before.Completed), st.attempted)
	m.add("serve.failed", "count", d(after.Failed, before.Failed), st.attempted)
	m.add("serve.shed_deadline", "count", d(after.ShedDeadline, before.ShedDeadline), st.attempted)
	m.add("serve.rejected_queue_full", "count", d(after.RejectedQueueFull, before.RejectedQueueFull), st.attempted)
	m.add("serve.degraded_admissions", "count", d(after.DegradedAdmissions, before.DegradedAdmissions), st.attempted)
	m.add("serve.over_commits", "count", float64(overCommits(after)), len(after.Devices))
	util := 0.0
	for _, dev := range after.Devices {
		util = max(util, dev.PeakUtilization)
	}
	m.add("serve.pool_peak_util_max", "ratio", util, len(after.Devices))

	ss, fs := opsTr.SamplerStats(), opsTr.FlightSnapshot()
	kept := 0.0
	if ss.Seen > 0 {
		kept = float64(ss.Kept) / float64(ss.Seen)
	}
	m.add("obs.head_seen", "count", float64(ss.Seen), int(ss.Seen))
	m.add("obs.head_kept", "count", float64(ss.Kept), int(ss.Seen))
	m.add("obs.kept_ratio", "ratio", kept, int(ss.Seen))
	retained := 0
	if fs != nil {
		retained = len(fs.Traces)
	}
	m.add("obs.flight_retained", "count", float64(retained), retained)

	offered := w.rate
	if offered == 0 {
		offered = float64(st.attempted) / loadDur.Seconds()
	}
	m.add("bench.gen_lag_ms_p99", "ms", quantile(st.lagMs, 0.99), len(st.lagMs))
	m.add("bench.offered_rps", "1/s", offered, st.attempted)
	m.add("bench.attempted_rps", "1/s", float64(st.attempted)/loadDur.Seconds(), st.attempted)
	m.add("bench.cpu_us_per_req", "us", float64((cpu1-cpu0).Microseconds())/float64(max(st.attempted, 1)), st.attempted)
	return writeChrome(tracePath, snap)
}

func writeChrome(path string, snap *obs.Snapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(bw, snap); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
