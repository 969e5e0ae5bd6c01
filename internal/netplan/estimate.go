package netplan

// The scheduler's second planning dimension: latency and energy. The
// per-plan cost estimate (internal/cost) prices every execution unit of a
// solved NetworkPlan — fused/baseline/unfused modules, the patch-split
// region with its halo recompute, streamed seam kernels, and the modeled
// glue of disjoint handoffs — so the search can navigate the
// memory↔recompute frontier instead of blindly minimizing bytes
// (MCUNetV2's tradeoff, Pex's "partial execution must be latency-costed").

import (
	"fmt"
	"sort"

	"github.com/vmcu-project/vmcu/internal/cost"
	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// Counter families (no label keys) the Pareto enumeration publishes on
// the tracer's registry: candidates examined and candidates that solved
// feasibly (enumeration progress).
const (
	MetricParetoCandidates = "vmcu_pareto_candidates"
	MetricParetoSolved     = "vmcu_pareto_solved"
)

// EstimatePlan predicts the execution cost of a solved plan under a
// profile without running it: one cost unit per execution unit of
// netplan.Run (split region, per-module kernels, streamed seams), plus one
// modeled glue unit per disjoint handoff (which the verifier never
// executes — the estimate keeps those separate in Estimate.Glue). The
// executed portion is bit-exact against the summed device counters of a
// netplan.Run of the same plan.
func EstimatePlan(profile mcu.Profile, net graph.Network, np *NetworkPlan) (*cost.Estimate, error) {
	if np == nil {
		return nil, fmt.Errorf("netplan: estimate of a nil plan")
	}
	if len(np.Modules) != len(net.Modules) {
		return nil, fmt.Errorf("netplan: plan has %d modules, network %s has %d",
			len(np.Modules), net.Name, len(net.Modules))
	}
	var units []cost.Unit
	start := 0
	if np.Split != nil {
		start = np.Split.Depth
		units = append(units, cost.Unit{
			Name:     splitName(np.Split),
			Kind:     "split",
			Executed: true,
			Stats:    cost.SplitRegion(np.Split.Plan),
		})
	}
	for mi := start; mi < len(net.Modules); mi++ {
		cfg := net.Modules[mi]
		ms := np.Modules[mi]
		u := cost.Unit{Name: cfg.Name, Kind: ms.Policy.String(), Executed: true}
		switch ms.Policy {
		case PolicyFused, PolicyBaseline:
			u.Stats = cost.FusedModule(cfg)
		case PolicyUnfused:
			st, err := cost.UnfusedModule(cfg)
			if err != nil {
				return nil, fmt.Errorf("netplan: %w", err)
			}
			u.Stats = st
		default:
			return nil, fmt.Errorf("netplan: module %s has unexpected policy %v outside the split region",
				cfg.Name, ms.Policy)
		}
		units = append(units, u)
	}
	// Handoffs: streamed seams are executed units; every other
	// non-connectable boundary is a modeled glue op.
	streamed := make(map[int]plan.SeamSpec, len(np.Seams))
	for _, s := range np.Seams {
		streamed[s.Producer] = s.Spec
	}
	for i := 0; i+1 < len(net.Modules); i++ {
		a, b := net.Modules[i], net.Modules[i+1]
		if Connects(a, b) {
			continue
		}
		if spec, ok := streamed[i]; ok {
			units = append(units, cost.Unit{
				Name:     spec.Name + " seam",
				Kind:     "seam",
				Executed: true,
				Stats:    cost.Seam(spec),
			})
			continue
		}
		_, _, _, _, h3, w3 := a.Grids()
		var specPtr *plan.SeamSpec
		if spec, ok := plan.SeamOf(a, b); ok {
			specPtr = &spec
		}
		units = append(units, cost.Unit{
			Name:     fmt.Sprintf("%s>%s glue", a.Name, b.Name),
			Kind:     "glue",
			Executed: false,
			Stats:    cost.DisjointGlue(specPtr, h3*w3*a.Cout, b.H*b.W*b.Cin),
		})
	}
	return cost.Assemble(profile, units), nil
}

func splitName(s *SplitSchedule) string {
	mods := s.Plan.Spec.Modules
	if len(mods) == 1 {
		return fmt.Sprintf("%s(split×%d)", mods[0].Name, s.Patches)
	}
	return fmt.Sprintf("%s+%s(split×%d)", mods[0].Name, mods[len(mods)-1].Name, s.Patches)
}

// Variant is one point of the (peak bytes, cycles, energy) plan space: a
// solved schedule, the pinned options that re-derive exactly it (the cache
// key serve's variant execution uses), and its cost estimate.
type Variant struct {
	// Desc summarizes the schedule, e.g. "no-split", "split 2×8",
	// "no-split min-cycle policies".
	Desc string
	// Plan is the solved schedule.
	Plan *NetworkPlan
	// Opts re-derives exactly this plan through Plan/Cache.Plan: the split
	// is pinned (or disabled) and latency-driven policy choices are forced.
	Opts Options
	// Est is the plan's cost estimate under the Pareto call's profile.
	Est *cost.Estimate
	// RecomputedRows is the split halo-recompute overhead (0 without one).
	RecomputedRows int
}

// Pareto enumerates candidate schedules along the planner's cost-bearing
// dimensions — the spatial patch split (depth × patch count, the
// memory↔recompute axis) and latency-driven per-module policy flips (the
// fused kernel re-expands each B pixel once per window row it serves, so
// an unfused-eligible module can trade pool bytes for ~R× fewer expansion
// MACs) — and returns the non-dominated set over (peak bytes, estimated
// cycles, estimated energy), sorted by ascending peak. Candidates that
// violate opts.BudgetBytes are excluded; opts.Split pinning restricts the
// split axis exactly as it does for Plan. The first element is the
// memory-optimal plan, the last the latency-optimal one.
func Pareto(profile mcu.Profile, net graph.Network, opts Options) ([]Variant, error) {
	if opts.Objective != MinPeak && opts.Objective != MinLatency {
		return nil, fmt.Errorf("netplan: unknown objective %v", opts.Objective)
	}
	tr := opts.Tracer
	pspan := tr.Start("netplan.pareto", obs.KindPlan)
	pspan.Attr(obs.Str("network", net.Name))
	defer pspan.End()

	candidates, err := paretoCandidates(net, opts)
	if err != nil {
		return nil, err
	}
	reg := tr.Registry()
	reg.CounterVec(MetricParetoCandidates, "Pareto candidate schedules enumerated.").With().Add(uint64(len(candidates)))
	solvedCount := reg.CounterVec(MetricParetoSolved, "Pareto candidates that solved feasibly.").With()
	variants := make([]Variant, 0, len(candidates))
	solved := 0
	for _, c := range candidates {
		np, err := Plan(net, c.opts)
		if err != nil {
			// Infeasible under the budget (or a pin the geometry rejects):
			// not a point of the frontier.
			continue
		}
		solved++
		solvedCount.Inc()
		est, err := EstimatePlan(profile, net, np)
		if err != nil {
			return nil, err
		}
		v := Variant{Desc: c.desc, Plan: np, Opts: c.opts, Est: est}
		if np.Split != nil {
			v.RecomputedRows = np.Split.Plan.RecomputedRows
		}
		variants = append(variants, v)
	}
	if solved == 0 {
		return nil, fmt.Errorf("netplan: no candidate schedule of %s is feasible under budget %d",
			net.Name, opts.BudgetBytes)
	}
	front := frontier(variants)
	pspan.Attr(obs.Int("candidates", int64(len(candidates))),
		obs.Int("solved", int64(solved)),
		obs.Int("frontier", int64(len(front))))
	return front, nil
}

// candidateOpts is one enumerated schedule of the Pareto search.
type candidateOpts struct {
	desc string
	opts Options
}

// paretoCandidates enumerates the search space: the non-split schedule,
// every eligible split (depth × patches), and for each of those a variant
// with the latency-greedy per-module policies forced on the unsplit tail.
func paretoCandidates(net graph.Network, opts Options) ([]candidateOpts, error) {
	if len(net.Modules) == 0 {
		return nil, fmt.Errorf("netplan: network %q has no modules", net.Name)
	}
	for _, cfg := range net.Modules {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("netplan: %w", err)
		}
	}
	if opts.Split.Disable && (opts.Split.Depth > 0 || opts.Split.Patches > 0) {
		// The same conflict Plan rejects; surfacing it here keeps Pareto
		// from reporting a misleading "no feasible candidate" instead.
		return nil, fmt.Errorf("netplan: split options conflict: Disable set together with pinned depth/patches (%d/%d)",
			opts.Split.Depth, opts.Split.Patches)
	}
	base := opts
	base.Objective = MinPeak // candidates re-solve under the default search

	// greedyForce returns opts.Force extended with the min-cycle policy for
	// every unforced module from index lo on; nil when nothing flips.
	greedyForce := func(lo int) map[string]Policy {
		var m map[string]Policy
		for _, cfg := range net.Modules[lo:] {
			if _, has := base.Force[cfg.Name]; has {
				continue
			}
			if !cost.UnfusedEligible(cfg) {
				continue
			}
			unf, err := cost.UnfusedModule(cfg)
			if err != nil {
				continue
			}
			if unf.MACs < cost.FusedModule(cfg).MACs {
				if m == nil {
					m = make(map[string]Policy, len(base.Force)+1)
					for k, v := range base.Force {
						m[k] = v
					}
				}
				m[cfg.Name] = PolicyUnfused
			}
		}
		return m
	}

	var out []candidateOpts
	pinnedSplit := opts.Split.Depth > 0 || opts.Split.Patches > 0
	if !pinnedSplit {
		noSplit := base
		noSplit.Split = SplitOptions{Disable: true}
		out = append(out, candidateOpts{desc: "no-split", opts: noSplit})
		if force := greedyForce(0); force != nil {
			fast := noSplit
			fast.Force = force
			out = append(out, candidateOpts{desc: "no-split min-cycle policies", opts: fast})
		}
	}
	if opts.Split.Disable {
		return out, nil
	}

	limit := splitDepthLimit(net, base)
	depths := make([]int, 0, limit)
	if opts.Split.Depth > 0 {
		if opts.Split.Depth > limit {
			return nil, fmt.Errorf("netplan: pinned split depth %d exceeds the eligible prefix of %d module(s)",
				opts.Split.Depth, limit)
		}
		depths = append(depths, opts.Split.Depth)
	} else {
		for k := 1; k <= limit; k++ {
			depths = append(depths, k)
		}
	}
	maxPatches := opts.Split.MaxPatches
	if maxPatches <= 0 {
		maxPatches = defaultMaxPatches
	}
	for _, depth := range depths {
		_, _, _, _, h3, _ := net.Modules[depth-1].Grids()
		lo, hi := 2, maxPatches
		if hi > h3 {
			hi = h3
		}
		if opts.Split.Patches > 0 {
			lo, hi = opts.Split.Patches, opts.Split.Patches
		}
		force := greedyForce(depth)
		for n := lo; n <= hi; n++ {
			if _, err := plan.PlanSplit(plan.SplitSpec{Modules: net.Modules[:depth], Patches: n}); err != nil {
				continue
			}
			split := base
			split.Split = SplitOptions{Depth: depth, Patches: n, MaxPatches: opts.Split.MaxPatches}
			out = append(out, candidateOpts{desc: fmt.Sprintf("split %d×%d", depth, n), opts: split})
			if force != nil {
				fast := split
				fast.Force = force
				out = append(out, candidateOpts{
					desc: fmt.Sprintf("split %d×%d min-cycle tail", depth, n), opts: fast})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("netplan: split pinning left no candidate schedule")
	}
	return out, nil
}

// frontier filters to the non-dominated set over (peak, cycles, energy)
// and orders it by ascending peak (descending cycles across the frontier).
func frontier(vs []Variant) []Variant {
	keep := make([]Variant, 0, len(vs))
	for i, v := range vs {
		dominated := false
		for j, w := range vs {
			if i == j {
				continue
			}
			noWorse := w.Plan.PeakBytes <= v.Plan.PeakBytes &&
				w.Est.Cycles <= v.Est.Cycles && w.Est.EnergyJoules <= v.Est.EnergyJoules
			better := w.Plan.PeakBytes < v.Plan.PeakBytes ||
				w.Est.Cycles < v.Est.Cycles || w.Est.EnergyJoules < v.Est.EnergyJoules
			// Among exact ties keep the earliest candidate only.
			if noWorse && (better || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, v)
		}
	}
	sort.Slice(keep, func(i, j int) bool {
		if keep[i].Plan.PeakBytes != keep[j].Plan.PeakBytes {
			return keep[i].Plan.PeakBytes < keep[j].Plan.PeakBytes
		}
		return keep[i].Est.Cycles < keep[j].Est.Cycles
	})
	return keep
}

// planMinLatency is the MinLatency objective: the estimated-cycle-minimal
// schedule among the Pareto candidates that fit opts.BudgetBytes.
func planMinLatency(net graph.Network, opts Options) (*NetworkPlan, error) {
	vs, err := Pareto(opts.costProfile(), net, opts)
	if err != nil {
		return nil, err
	}
	best := vs[0]
	for _, v := range vs[1:] {
		if v.Est.Cycles < best.Est.Cycles ||
			(v.Est.Cycles == best.Est.Cycles && v.Plan.PeakBytes < best.Plan.PeakBytes) {
			best = v
		}
	}
	return best.Plan, nil
}
