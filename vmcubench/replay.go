package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// The layer replay of a traced run: the first requests of the workload's
// seed stream, executed verified on a Cortex-M4 serially on one
// goroutine, with one span around each call into a layer. The per-layer
// numbers are read back from these spans.

// timed runs f inside a child span of parent and attaches the attributes
// f returns.
func timed(tr *obs.Tracer, parent *obs.Span, name, layer string,
	f func(id, trace uint64) ([]obs.Attr, error)) error {
	sp := tr.StartChild(parent, name, layer)
	attrs, err := f(sp.ID(), sp.TraceID())
	sp.Attr(attrs...)
	sp.End()
	return err
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// coldRounds is how many fresh plan caches each model is solved in.
const coldRounds = 3

// coldPlans times cold plan-cache solves and one Pareto enumeration per
// model of the workload: the planning a registration pays.
func coldPlans(tr *obs.Tracer, w workload) error {
	root := tr.Start("bench.cold", obs.KindPlan)
	defer root.End()
	for _, m := range w.models {
		net := networks[m]()
		for r := 0; r < coldRounds; r++ {
			cache := netplan.NewCache()
			if err := timed(tr, root, "netplan.Cache.Plan", "netplan", func(uint64, uint64) ([]obs.Attr, error) {
				_, hit, err := cache.Plan(net, netplan.Options{})
				return []obs.Attr{obs.Int("hit", boolInt(hit))}, err
			}); err != nil {
				return err
			}
		}
		if err := timed(tr, root, "netplan.Pareto", "netplan", func(uint64, uint64) ([]obs.Attr, error) {
			vs, err := netplan.Pareto(mcu.CortexM4(), net, netplan.Options{})
			return []obs.Attr{obs.Int("variants", int64(len(vs)))}, err
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayUnit is one execution unit of netplan.Run, in its order.
type replayUnit struct {
	call string // the graph function that executes it
	run  func() (graph.ExecResult, error)
}

// units lists a plan's execution units with the seeds netplan.Run gives
// them: the split region, then each remaining module, then each seam.
func units(prof mcu.Profile, net graph.Network, np *netplan.NetworkPlan, seed int64) []replayUnit {
	var us []replayUnit
	start := 0
	if np.Split != nil {
		start = np.Split.Depth
		sp := np.Split.Plan
		us = append(us, replayUnit{"graph.RunSplitRegion", func() (graph.ExecResult, error) {
			return graph.RunSplitRegion(prof, sp, seed)
		}})
	}
	for mi := start; mi < len(net.Modules); mi++ {
		cfg, ms, s := net.Modules[mi], np.Modules[mi], seed+int64(mi)
		if ms.Policy == netplan.PolicyUnfused {
			us = append(us, replayUnit{"graph.RunModuleUnfused", func() (graph.ExecResult, error) {
				return graph.RunModuleUnfused(prof, cfg, s)
			}})
			continue
		}
		us = append(us, replayUnit{"graph.RunModuleWithPlan", func() (graph.ExecResult, error) {
			return graph.RunModuleWithPlan(prof, cfg, ms.Plans[0], s)
		}})
	}
	for si, sm := range np.Seams {
		s := seed + int64(len(net.Modules)) + int64(si)
		us = append(us, replayUnit{"graph.RunSeam", func() (graph.ExecResult, error) {
			return graph.RunSeam(prof, sm.Spec, sm.Plan, s)
		}})
	}
	return us
}

// goldenInputs draws random weights and an input of one module's shapes.
func goldenInputs(cfg plan.Bottleneck, seed int64) ([]int8, kernels.BottleneckWeights) {
	rng := rand.New(rand.NewSource(seed))
	i8 := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			out[i] = int8(rng.Intn(255) - 127)
		}
		return out
	}
	i32 := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(rng.Intn(1<<9) - 1<<8)
		}
		return out
	}
	wt := kernels.BottleneckWeights{
		W1: i8(cfg.Cmid * cfg.Cin), B1: i32(cfg.Cmid),
		Wd: i8(cfg.R * cfg.S * cfg.Cmid), Bd: i32(cfg.Cmid),
		W2: i8(cfg.Cout * cfg.Cmid), B2: i32(cfg.Cout),
		Req1: tensor.NewRequant(0.01, 0), ReqD: tensor.NewRequant(0.05, 0), Req2: tensor.NewRequant(0.01, 0),
	}
	return i8(cfg.H * cfg.W * cfg.Cin), wt
}

// replayLimit caps the replay at the first 20 requests of the stream.
const replayLimit = 20

// replay runs requests of the seed stream through the layers until
// replayLimit requests or budget, at least one. It returns the executed
// device counters of each replayed request, by stream index, and the
// correctness problems it found.
func replay(tr *obs.Tracer, w workload, seed int64, budget time.Duration) ([]mcu.Stats, []string, error) {
	prof := mcu.CortexM4()
	cache := netplan.NewCache()
	var sums []mcu.Stats
	var problems []string
	start := time.Now()
	for i := 0; i < replayLimit && (i == 0 || time.Since(start) < budget); i++ {
		rq := w.request(seed, uint64(i))
		sum, probs, err := replayOne(tr, cache, prof, rq, i)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %d (%s): %w", i, rq.model, err)
		}
		sums = append(sums, sum)
		problems = append(problems, probs...)
	}
	return sums, problems, nil
}

func replayOne(tr *obs.Tracer, cache *netplan.Cache, prof mcu.Profile, rq request, idx int) (mcu.Stats, []string, error) {
	net := networks[rq.model]()
	root := tr.Start("bench.replay", obs.KindRequest)
	root.Attr(obs.Str("model", rq.model), obs.Int("seed", rq.seed), obs.Int("index", int64(idx)))
	defer root.End()
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("replay %d (%s): ", idx, rq.model)+fmt.Sprintf(format, args...))
	}

	var np *netplan.NetworkPlan
	if err := timed(tr, root, "netplan.Cache.Plan", "netplan", func(uint64, uint64) ([]obs.Attr, error) {
		var hit bool
		var err error
		np, hit, err = cache.Plan(net, netplan.Options{})
		return []obs.Attr{obs.Int("hit", boolInt(hit))}, err
	}); err != nil {
		return mcu.Stats{}, nil, err
	}
	var run *netplan.RunResult
	if err := timed(tr, root, "netplan.Run", "netplan", func(id, trace uint64) ([]obs.Attr, error) {
		var err error
		run, err = netplan.RunTraced(prof, net, rq.seed, netplan.Options{}, cache, tr, id, trace, "replay")
		return nil, err
	}); err != nil {
		return mcu.Stats{}, nil, err
	}
	ran := append(append([]graph.ExecResult(nil), run.Modules...), run.Seams...)

	var sum mcu.Stats
	us := units(prof, net, np, rq.seed)
	if len(ran) != len(us) {
		bad("netplan.Run executed %d units, the plan has %d", len(ran), len(us))
	}
	for u, un := range us {
		if err := timed(tr, root, un.call, "graph", func(uint64, uint64) ([]obs.Attr, error) {
			a0 := heapAllocs()
			r, err := un.run()
			allocated := heapAllocs() - a0
			if err != nil {
				return nil, err
			}
			sum.Add(r.Stats)
			if !r.OutputOK || r.Violations != 0 {
				bad("unit %s: verified=%v violations=%d", r.Name, r.OutputOK, r.Violations)
			}
			if u >= len(ran) || ran[u].Stats != r.Stats {
				bad("unit %s: replayed counters differ from netplan.Run's", r.Name)
			}
			return []obs.Attr{
				obs.Str("unit", r.Name),
				obs.Float("cycles", r.Stats.Cycles(prof)),
				obs.Float("energy_j", r.Stats.EnergyJoules(prof)),
				obs.Int("macs", int64(r.Stats.MACs)),
				obs.Int("ram_bytes", int64(r.Stats.RAMReadBytes+r.Stats.RAMWriteBytes)),
				obs.Int("violations", int64(r.Violations)),
				obs.Int("alloc_bytes", int64(allocated)),
			}, nil
		}); err != nil {
			return mcu.Stats{}, nil, err
		}
	}

	for mi, cfg := range net.Modules {
		in, wt := goldenInputs(cfg, rq.seed+int64(mi))
		if err := timed(tr, root, "kernels.GoldenBottleneck", "kernels", func(uint64, uint64) ([]obs.Attr, error) {
			out := kernels.GoldenBottleneck(in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
				cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, cfg.Residual())
			return []obs.Attr{obs.Str("module", cfg.Name), obs.Int("out_bytes", int64(len(out)))}, nil
		}); err != nil {
			return mcu.Stats{}, nil, err
		}
	}

	if err := timed(tr, root, "netplan.EstimatePlan", "cost", func(uint64, uint64) ([]obs.Attr, error) {
		est, err := netplan.EstimatePlan(prof, net, np)
		if err != nil {
			return nil, err
		}
		executed := sum.Cycles(prof)
		ratio := math.Abs(est.ExecutedCycles-executed) / executed
		if est.Executed != sum {
			bad("cost estimate %+v differs from executed counters %+v", est.Executed, sum)
		}
		return []obs.Attr{obs.Float("executed_cycles", executed), obs.Float("error_ratio", ratio)}, nil
	}); err != nil {
		return mcu.Stats{}, nil, err
	}
	return sum, problems, nil
}

// attr reads a numeric span attribute (0 when absent).
func attr(sp obs.SpanData, key string) float64 {
	for _, a := range sp.Attrs {
		if a.Key == key {
			if a.Kind == "int" {
				return float64(a.Int)
			}
			return a.Float
		}
	}
	return 0
}

func durMs(sp obs.SpanData) float64 { return float64(sp.End-sp.Start) / 1e6 }

// layerMetrics reads the per-layer metrics of the replay and of the
// traced requests back from the recorded spans.
func layerMetrics(m metricSet, snap *obs.Snapshot) {
	byName := map[string][]obs.SpanData{}
	kids := map[uint64][]obs.SpanData{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	durs := func(name string, scale float64) []float64 {
		var out []float64
		for _, sp := range byName[name] {
			out = append(out, durMs(sp)*scale)
		}
		return out
	}

	submit := durs("serve.Submit", 1e3)
	m.add("serve.submit_us_p50", "us", quantile(submit, 0.5), len(submit))
	m.add("serve.submit_us_p99", "us", quantile(submit, 0.99), len(submit))
	queue := durs("serve.queue", 1)
	m.add("serve.queue_wait_ms_p50", "ms", quantile(queue, 0.5), len(queue))
	m.add("serve.queue_wait_ms_p99", "ms", quantile(queue, 0.99), len(queue))
	exec := durs("serve.exec", 1)
	m.add("serve.exec_ms_p50", "ms", quantile(exec, 0.5), len(exec))

	var hitUs, coldMs []float64
	for _, sp := range byName["netplan.Cache.Plan"] {
		if attr(sp, "hit") == 1 {
			hitUs = append(hitUs, durMs(sp)*1e3)
		} else {
			coldMs = append(coldMs, durMs(sp))
		}
	}
	m.add("netplan.plan_hit_us_p50", "us", median(hitUs), len(hitUs))
	m.add("netplan.plan_cold_ms", "ms", median(coldMs), len(coldMs))
	pareto := 0.0
	for _, x := range durs("netplan.Pareto", 1) {
		pareto += x
	}
	m.add("netplan.pareto_ms", "ms", pareto, len(byName["netplan.Pareto"]))
	var runMs, selfMs []float64
	for _, sp := range byName["netplan.Run"] {
		runMs = append(runMs, durMs(sp))
		selfMs = append(selfMs, float64(selfTime(sp, kids[sp.ID]))/1e6)
	}
	m.add("netplan.run_ms_p50", "ms", median(runMs), len(runMs))
	m.add("netplan.run_self_ms", "ms", median(selfMs), len(selfMs))

	var (
		unitMs, splitMs, goldenMs, runTotal, cycles, macs, ram, energy, alloc, viol, errRatio float64
		moduleMs, seamMs, estUs                                                               []float64
		nUnits                                                                                int
	)
	roots := byName["bench.replay"]
	for _, root := range roots {
		for _, c := range kids[root.ID] {
			d := durMs(c)
			switch {
			case strings.HasPrefix(c.Name, "graph."):
				nUnits++
				unitMs += d
				cycles += attr(c, "cycles")
				macs += attr(c, "macs")
				ram += attr(c, "ram_bytes")
				energy += attr(c, "energy_j")
				alloc += attr(c, "alloc_bytes")
				viol += attr(c, "violations")
				switch c.Name {
				case "graph.RunSeam":
					seamMs = append(seamMs, d)
				case "graph.RunSplitRegion":
					splitMs += d
				default:
					moduleMs = append(moduleMs, d)
				}
			case c.Name == "kernels.GoldenBottleneck":
				goldenMs += d
			case c.Name == "netplan.EstimatePlan":
				estUs = append(estUs, d*1e3)
				errRatio = math.Max(errRatio, attr(c, "error_ratio"))
			case c.Name == "netplan.Run":
				runTotal += d
			}
		}
	}
	n := float64(max(len(roots), 1))
	share := func(x float64) float64 {
		if unitMs == 0 {
			return 0
		}
		return x / unitMs
	}
	m.add("netplan.run_parallel_speedup", "ratio", unitMs/math.Max(runTotal, 1e-9), len(roots))
	m.add("graph.module_ms", "ms", median(moduleMs), len(moduleMs))
	m.add("graph.seam_ms", "ms", median(seamMs), len(seamMs))
	m.add("graph.split_share", "ratio", share(splitMs), len(roots))
	m.add("graph.units_per_req", "count", float64(nUnits)/n, len(roots))
	m.add("graph.alloc_kb_per_unit", "KB", alloc/1024/float64(max(nUnits, 1)), nUnits)
	m.add("kernels.golden_ms_per_req", "ms", goldenMs/n, len(roots))
	m.add("kernels.golden_share", "ratio", share(goldenMs), len(roots))
	m.add("mcu.sim_cycles_per_req", "cycles", cycles/n, len(roots))
	m.add("mcu.macs_per_req", "count", macs/n, len(roots))
	m.add("mcu.ram_bytes_per_req", "bytes", ram/n, len(roots))
	m.add("mcu.device_mj_m4", "mJ", energy*1e3/n, len(roots))
	m.add("mcu.violations", "count", viol, nUnits)
	m.add("mcu.host_ns_per_cycle", "ns/cycle", unitMs*1e6/math.Max(cycles, 1), nUnits)
	m.add("mcu.host_ns_per_ram_byte", "ns/B", unitMs*1e6/math.Max(ram, 1), nUnits)
	m.add("cost.estimate_us", "us", median(estUs), len(estUs))
	m.add("cost.model_error_ratio", "ratio", errRatio, len(estUs))
}
