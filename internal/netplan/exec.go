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
// verified ExecResult per executed unit. Modules holds the split region
// (e.g. "B1+B2(split×8)"), if any, then each remaining module in network
// order; Seams holds the streamed seams apart, so Modules keeps its
// one-entry-per-module shape. Glue is not executed and has no result.
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

// Run plans the network through the cache and verifies every executed unit
// of the plan (NetworkPlan.Units, glue skipped) under its scheduled policy.
// Every unit runs on the network's weights (Cache.Weights, drawn once per
// network from the model seed); seed picks only the inputs: the split
// region's from seed, module i's from seed+i and seam si's from
// seed+len(net.Modules)+si. Unit verifications are independent (each runs
// on a pooled device reset to New's state and loaded with its unit's Flash
// image), so they run concurrently on a bounded worker pool.
func Run(profile mcu.Profile, net graph.Network, seed int64, opts Options, cache *Cache) (*RunResult, error) {
	return RunTraced(profile, net, seed, opts, cache, nil, 0, 0, "")
}

// RunTraced is Run with per-unit observability: when tr (or opts.Tracer)
// is enabled, every executed unit is recorded as a KindUnit span carrying
// its device counters (cycles, MACs, RAM traffic, peak bytes, verification
// outcome) under the given parent/trace span IDs (0 for standalone roots).
// Wall times overlap, as the units run on a worker pool. The simulated
// cycle axis lays the units' cycles back to back in NetworkPlan.Units
// order; each unit counts its own isolated run, input placement included,
// and glue counts nothing, so the axis is not a one-pass device timeline.
// device names the simulated device in the span ("" for host-only traces).
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
	executed := len(np.Units) - np.Handoffs + len(np.Seams)
	results := make([]graph.ExecResult, executed)
	errs := make([]error, executed)
	// Per-unit wall start and end, captured only when tracing (a nil slice
	// keeps the untraced hot path free of clock reads).
	var wall [][2]int64
	if tr.Enabled() {
		wall = make([][2]int64, executed)
	}
	jobs := make(chan int) // indices into np.Units
	workers := runtime.GOMAXPROCS(0)
	if workers > executed {
		workers = executed
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newInputRand() // reseeded per unit
			for ui := range jobs {
				u := np.Units[ui]
				r := np.resultSlot(u)
				if wall != nil {
					wall[r][0] = tr.Now()
				}
				switch u.Kind {
				case UnitSplit:
					rng.Seed(seed)
					results[r], errs[r] = graph.ExecSplitRegion(profile, np.Split.Plan, wt.Modules[:np.Split.Depth], rng)
				case UnitModule:
					rng.Seed(seed + int64(u.Index))
					mw, ms := wt.Modules[u.Index], np.Modules[u.Index]
					if ms.Policy == PolicyUnfused {
						results[r], errs[r] = graph.ExecModuleUnfused(profile, mw, rng)
					} else { // baseline runs the fused kernel under its wider placement
						results[r], errs[r] = graph.ExecModule(profile, mw, ms.Plans[0], rng)
					}
				case UnitSeam:
					// Seam seeds start past every module seed so no unit
					// shares another's input stream.
					rng.Seed(seed + int64(len(np.Modules)) + int64(u.Index))
					results[r], errs[r] = runSeam(profile, np.Seams[u.Index], wt, rng)
				}
				if errs[r] != nil {
					errs[r] = fmt.Errorf("netplan: %s: %w", u.Name, errs[r])
				}
				if wall != nil {
					wall[r][1] = tr.Now()
				}
			}
		}()
	}
	for ui, u := range np.Units {
		if u.Kind != UnitGlue {
			jobs <- ui
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	nMod := executed - len(np.Seams)
	out := &RunResult{Plan: np, Modules: results[:nMod], Seams: results[nMod:], AllVerified: true}
	for _, r := range results {
		if !r.OutputOK {
			out.AllVerified = false
		}
		out.Violations += r.Violations
	}
	if tr.Enabled() {
		emitUnitSpans(tr, buf, profile, np, results, wall, parentID, traceID, device)
	}
	return out, nil
}

// resultSlot is where an executed unit's result lands: the split region and
// the modules first (RunResult.Modules), then the seams (RunResult.Seams).
func (np *NetworkPlan) resultSlot(u Unit) int {
	switch {
	case u.Kind == UnitSeam:
		return len(np.Units) - np.Handoffs + u.Index
	case np.Split == nil:
		return u.Index
	case u.Kind == UnitSplit:
		return 0
	}
	return u.Index - np.Split.Depth + 1
}

// emitUnitSpans records one KindUnit span per executed unit into buf (or
// straight into tr when buf is nil), in NetworkPlan.Units order, so a seam
// starts on the cycle axis where its producer ends. It runs in the calling
// goroutine after the workers finish, so buf keeps its single owner.
func emitUnitSpans(tr *obs.Tracer, buf *obs.SpanBuffer, profile mcu.Profile, np *NetworkPlan,
	results []graph.ExecResult, wall [][2]int64, parentID, traceID uint64, device string) {
	cursor := 0.0
	for _, u := range np.Units {
		if u.Kind == UnitGlue {
			continue
		}
		slot := np.resultSlot(u)
		r := results[slot]
		cyc := r.Stats.Cycles(profile)
		verified := int64(0)
		if r.OutputOK {
			verified = 1
		}
		tr.EmitTo(buf, obs.SpanData{
			Parent: parentID, Trace: traceID,
			Name: u.Name, Kind: obs.KindUnit, Device: device,
			Start: wall[slot][0], End: wall[slot][1],
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

// runSeam executes seam s on the weights drawn for its boundary.
func runSeam(profile mcu.Profile, s SeamSchedule, wt *graph.Weights, rng *rand.Rand) (graph.ExecResult, error) {
	sw := wt.Seams[s.Producer]
	if sw == nil || sw.Spec != s.Spec {
		return graph.ExecResult{}, fmt.Errorf("netplan: no weights drawn for seam %s", s.Name)
	}
	return graph.ExecSeam(profile, sw, s.Plan, rng)
}
