package netplan

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// RunResult reports a whole-network execution: the memoized plan plus one
// verified ExecResult per executed unit, in network order. Without a
// patch-split region that is one result per module; with one, the region's
// modules verify together as the leading unit (named e.g. "B1+B2(split×8)")
// followed by one result per remaining module. Streamed seam kernels
// (NetworkPlan.Seams) verify as their own units, reported separately in
// Seams so Modules keeps its one-entry-per-module shape.
type RunResult struct {
	Plan    *NetworkPlan
	Modules []graph.ExecResult
	// Seams holds one verified result per streamed handoff, in network
	// order (empty under HandoffDisjoint).
	Seams []graph.ExecResult
	// AllVerified is true when every unit's output — modules, split
	// region, and streamed seams — matched its golden composition
	// bit-exactly.
	AllVerified bool
	// Violations totals the shadow-state memory-safety violations across
	// all units (0 proves the schedule's offsets are safe).
	Violations int
}

// Run plans the network through the cache and executes every unit's
// verification under its scheduled policy. Every unit runs on the
// network's weights (Cache.Weights, drawn once per network from the model
// seed); seed picks only the inputs: the split region's from seed, module
// i's from seed+i and seam si's from seed+len(net.Modules)+si. Unit
// verifications are independent (each runs on a pooled device reset to
// New's state and loaded with its unit's Flash image), so they run
// concurrently on a bounded worker pool; results keep network order.
func Run(profile mcu.Profile, net graph.Network, seed int64, opts Options, cache *Cache) (*RunResult, error) {
	return RunTraced(profile, net, seed, opts, cache, nil, 0, 0, "")
}

// RunTraced is Run with per-unit observability: when tr (or opts.Tracer)
// is enabled, every executed unit — module, split region, streamed seam —
// is recorded as a KindUnit span carrying the unit's device counters
// (cycles, MACs, RAM traffic, peak bytes, verification outcome) under the
// given parent/trace span IDs (0 for standalone roots). Units execute
// concurrently on the worker pool, so their wall times overlap; the
// simulated cycle axis is laid out cumulatively in network order — the
// timeline the single-core device would execute — which is what the
// exported device-cycle track renders. device names the simulated device
// in the span ("" for host-only traces).
func RunTraced(profile mcu.Profile, net graph.Network, seed int64, opts Options, cache *Cache,
	tr *obs.Tracer, parentID, traceID uint64, device string) (*RunResult, error) {
	if tr == nil {
		tr = opts.Tracer
	}
	return RunTracedTo(profile, net, seed, opts, cache, tr, nil, parentID, traceID, device)
}

// RunTracedTo is RunTraced for a caller that owns the span tree the unit
// spans belong to (a serving request): they are appended to buf with
// obs.Tracer.EmitTo and reach the tracer, and its flight recorder, with
// the owner's RecordTree flush. A nil buf records them straight into tr.
// tr is taken as given, with no fallback to opts.Tracer, so a nil tr
// records nothing.
func RunTracedTo(profile mcu.Profile, net graph.Network, seed int64, opts Options, cache *Cache,
	tr *obs.Tracer, buf *obs.SpanBuffer, parentID, traceID uint64, device string) (*RunResult, error) {
	if cache == nil {
		cache = Default
	}
	np, _, err := cache.Plan(net, opts)
	if err != nil {
		return nil, err
	}
	wt, err := cache.Weights(net)
	if err != nil {
		return nil, err
	}
	// Unit list: module index, -1 for the patch-split region, or
	// -2-si for streamed seam si. Module/region results land in Modules,
	// seam results in Seams; both keep network order.
	units := []int{}
	start := 0
	if np.Split != nil {
		units = append(units, -1)
		start = np.Split.Depth
	}
	for i := start; i < len(net.Modules); i++ {
		units = append(units, i)
	}
	nMod := len(units)
	for si := range np.Seams {
		units = append(units, -2-si)
	}
	results := make([]graph.ExecResult, len(units))
	errs := make([]error, len(units))
	// Per-unit wall timestamps, captured only when tracing (nil slices keep
	// the untraced hot path free of clock reads).
	var startNs, endNs []int64
	if tr.Enabled() {
		startNs = make([]int64, len(units))
		endNs = make([]int64, len(units))
	}
	jobs := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	// Seam seeds start past every module seed so no unit shares another's
	// input stream.
	seamSeed := func(si int) int64 { return seed + int64(len(net.Modules)) + int64(si) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newInputRand() // reseeded per unit
			for u := range jobs {
				if startNs != nil {
					startNs[u] = tr.Now()
				}
				switch mi := units[u]; {
				case mi <= -2:
					s := np.Seams[-2-mi]
					rng.Seed(seamSeed(-2 - mi))
					results[u], errs[u] = runSeam(profile, s, wt, rng)
				case mi == -1:
					rng.Seed(seed)
					results[u], errs[u] = graph.ExecSplitRegion(profile, np.Split.Plan, wt.Modules[:np.Split.Depth], rng)
				default:
					rng.Seed(seed + int64(mi))
					results[u], errs[u] = runModule(profile, wt.Modules[mi], np.Modules[mi], rng)
				}
				if endNs != nil {
					endNs[u] = tr.Now()
				}
			}
		}()
	}
	for u := range units {
		jobs <- u
	}
	close(jobs)
	wg.Wait()
	for u, err := range errs {
		if err != nil {
			name := "split region"
			if mi := units[u]; mi >= 0 {
				name = net.Modules[mi].Name
			} else if mi <= -2 {
				name = "seam " + np.Seams[-2-mi].Name
			}
			return nil, fmt.Errorf("netplan: %s: %w", name, err)
		}
	}
	out := &RunResult{Plan: np, Modules: results[:nMod], Seams: results[nMod:], AllVerified: true}
	for _, r := range results {
		if !r.OutputOK {
			out.AllVerified = false
		}
		out.Violations += r.Violations
	}
	if tr.Enabled() {
		emitUnitSpans(tr, buf, profile, net, np, units, results, startNs, endNs, parentID, traceID, device)
	}
	return out, nil
}

// emitUnitSpans records one KindUnit span per executed unit into buf (or
// straight into tr when buf is nil), in network order. It runs in the
// calling goroutine after the workers finish, so buf keeps its single
// owner. Wall times are the measured per-worker times; the simulated cycle
// axis is cumulative in network order, placing every kernel where the
// single-core device would execute it.
func emitUnitSpans(tr *obs.Tracer, buf *obs.SpanBuffer, profile mcu.Profile, net graph.Network, np *NetworkPlan,
	units []int, results []graph.ExecResult, startNs, endNs []int64, parentID, traceID uint64, device string) {
	cursor := 0.0
	for u, mi := range units {
		r := results[u]
		cyc := r.Stats.Cycles(profile)
		var name string
		switch {
		case mi <= -2:
			name = np.Seams[-2-mi].Name + " seam"
		case mi == -1:
			name = splitName(np.Split)
		default:
			name = fmt.Sprintf("%s(%s)", net.Modules[mi].Name, np.Modules[mi].Policy)
		}
		verified := int64(0)
		if r.OutputOK {
			verified = 1
		}
		tr.EmitTo(buf, obs.SpanData{
			Parent: parentID, Trace: traceID,
			Name: name, Kind: obs.KindUnit, Device: device,
			Start: startNs[u], End: endNs[u],
			StartCycles: cursor, EndCycles: cursor + cyc,
			Attrs: []obs.Attr{
				obs.Float("cycles", cyc),
				obs.Int("macs", int64(r.Stats.MACs)),
				obs.Int("ram_read_bytes", int64(r.Stats.RAMReadBytes)),
				obs.Int("ram_write_bytes", int64(r.Stats.RAMWriteBytes)),
				obs.Int("peak_bytes", int64(r.PeakBytes)),
				obs.Int("violations", int64(r.Violations)),
				obs.Int("verified", verified),
			},
		})
		cursor += cyc
	}
}

// newInputRand returns a worker's input stream, reseeded per unit. A
// package variable so a test can observe the inputs a run draws;
// production code never reassigns it.
var newInputRand = func() *rand.Rand { return rand.New(rand.NewSource(1)) }

func runModule(profile mcu.Profile, mw *graph.ModuleWeights, ms ModuleSchedule, rng *rand.Rand) (graph.ExecResult, error) {
	switch ms.Policy {
	case PolicyUnfused:
		return graph.ExecModuleUnfused(profile, mw, rng)
	default:
		// Fused and baseline both execute the fused kernel; baseline just
		// runs it under the wider disjoint placement.
		return graph.ExecModule(profile, mw, ms.Plans[0], rng)
	}
}

// runSeam executes seam s on the weights drawn for its boundary.
func runSeam(profile mcu.Profile, s SeamSchedule, wt *graph.Weights, rng *rand.Rand) (graph.ExecResult, error) {
	sw := wt.Seams[s.Producer]
	if sw == nil || sw.Spec != s.Spec {
		return graph.ExecResult{}, fmt.Errorf("netplan: no weights drawn for seam %s", s.Name)
	}
	return graph.ExecSeam(profile, sw, s.Plan, rng)
}
