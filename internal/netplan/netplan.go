// Package netplan schedules an entire network — every inverted-bottleneck
// module of a Table-2 backbone — into one circular segment pool end to end.
//
// The per-module planner (internal/plan) solves each module in isolation,
// which implicitly assumes the pool resets between modules. This package
// removes that assumption: it computes per-activation live ranges across
// module boundaries, extends the Eq. (2) difference-constraint system from
// single chains (plan.PlanChain) to the whole module graph, and searches
// over per-module scheduling policies (fused kernel, per-layer unfused
// chain, or a disjoint baseline fallback) to minimize the network's peak
// RAM under a device budget. A second search dimension — spatial patch
// splitting of the leading modules (PolicySplit, plan.PlanSplit) — breaks
// the bound per-module policies are pinned to: the largest fused module
// footprint.
//
// Two kinds of module boundary occur in the Table-2 backbones:
//
//   - Connectable: module i's output shape equals module i+1's input shape.
//     The two modules share one tensor, and the solved pointer gaps carry
//     straight through — no copy, no reset.
//   - Handoff: the shapes differ (the published tables elide the glue
//     layers between stages). Under the default HandoffStream mode the
//     scheduler makes the glue op concrete wherever it is expressible as
//     a strided pointwise (plan.SeamOf): a streamed seam kernel whose
//     Eq. (1) gap solve lets the consumer input overlap segments freed
//     from the producer output — only a minimal pointer gap separates the
//     two activations. Boundaries no seam can express (e.g. ImageNet's
//     B12→B13 spatial upsample), and every handoff under HandoffDisjoint,
//     keep the opaque glue step holding both activations fully disjoint.
//
// The solved placement is lifetime-aware: the network peak is the maximum
// over execution steps of the live-byte window (highest live extent minus
// lowest live offset, plus that step's kernel workspace), not the sum of
// all virtual offsets — dead tensors are reclaimed by the circular pool's
// wrap-around exactly as in the single-module case.
package netplan

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/ilp"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// Policy selects how one module is scheduled within the network pool.
type Policy int

const (
	// PolicyFused runs the §5.2 fused kernel with the minimal solved
	// pointer gap: output segments overlap segments freed from the input.
	PolicyFused Policy = iota
	// PolicyUnfused runs the module as a per-layer chain with Eq. (2)
	// offsets: the expansion tensor materializes in full, but no fused
	// workspace is needed.
	PolicyUnfused
	// PolicyBaseline runs the fused kernel with a fully disjoint
	// input/output placement — the TinyEngine-style fallback that never
	// reuses freed input segments.
	PolicyBaseline
	// PolicySplit executes the module inside a spatial patch-split region
	// (MCUNetV2-style): the leading modules' H×W planes are partitioned
	// into row patches, each patch's sub-chain streams its input-row
	// window (with halo) through two ping-pong scratch slots, and the
	// final module's rows re-join into one contiguous activation. Only the
	// current patch's windows are resident, so the region's requirement is
	// no longer bounded below by the largest fused module footprint.
	PolicySplit
)

func (p Policy) String() string {
	switch p {
	case PolicyFused:
		return "fused"
	case PolicyUnfused:
		return "unfused"
	case PolicyBaseline:
		return "baseline"
	case PolicySplit:
		return "split"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// HandoffMode selects how non-connectable module boundaries are modeled.
type HandoffMode int

const (
	// HandoffStream (the default) replaces the opaque glue step with a
	// streamed seam kernel wherever the boundary is expressible as a
	// strided pointwise glue op (plan.SeamOf): the consumer input overlaps
	// segments freed from the producer output at the solved Eq. (1) gap.
	// Boundaries no seam can express fall back to the disjoint handoff.
	HandoffStream HandoffMode = iota
	// HandoffDisjoint models every non-connectable boundary as an opaque
	// glue step holding both activations fully disjoint — the
	// TinyEngine-style worst case, safe for any glue op.
	HandoffDisjoint
)

func (m HandoffMode) String() string {
	switch m {
	case HandoffStream:
		return "stream"
	case HandoffDisjoint:
		return "disjoint"
	}
	return fmt.Sprintf("handoff(%d)", int(m))
}

// Tensor is one activation in the whole-network schedule.
type Tensor struct {
	// Name identifies the activation, e.g. "input", "S3.B", "S4.out".
	Name string
	// Bytes is the raw int8 activation size.
	Bytes int
	// Offset is the solved virtual pool offset; the final network output
	// anchors at 0 and earlier tensors sit at higher offsets.
	Offset int
	// Birth and Death are the first and last step indices (inclusive) at
	// which the tensor is live.
	Birth, Death int
}

// Step is one entry of the network execution timeline: a module kernel
// invocation, one layer of an unfused chain, or an inter-module handoff.
type Step struct {
	// Name describes the step, e.g. "S1(fused)", "S3.conv1", "S2>S3 handoff".
	Name string
	// Module is the index of the module this step belongs to, -1 for
	// inter-module handoffs.
	Module int
	// WorkspaceBytes is the kernel workspace live during this step only.
	WorkspaceBytes int
	// Live lists the indices (into NetworkPlan.Tensors) of the activations
	// live during the step.
	Live []int
	// WindowBytes is the step's solved instantaneous RAM requirement:
	// highest live extent minus lowest live offset, plus workspace.
	WindowBytes int
}

// Constraint is one difference constraint Offset[Hi] − Offset[Lo] ≥ Gap of
// the network-wide Eq. (2) system, kept for introspection and testing.
type Constraint struct {
	Hi, Lo int // tensor indices
	Gap    int // bytes
}

// ModuleSchedule reports the policy chosen for one module.
type ModuleSchedule struct {
	Name   string
	Policy Policy
	// Plans holds the per-kernel plans: one for fused/baseline, three
	// (conv1, depthwise, conv2) for unfused.
	Plans []plan.Plan
	// WindowBytes is the module's own contribution to the network peak
	// under the chosen policy: the fused/baseline footprint, or the whole
	// chain footprint (what the unfused executor allocates) for unfused.
	WindowBytes int
	// FusedBytes is what the per-module fused plan (graph.Network.Report's
	// vMCU column) would need — the comparison baseline.
	FusedBytes int
}

// SplitSchedule describes the patch-split region of a plan: the first
// Depth modules executed patch-by-patch with Patches spatial patches.
type SplitSchedule struct {
	Depth   int
	Patches int
	Plan    plan.SplitPlan
}

// SeamSchedule is one streamed handoff: the elided glue op at a
// non-connectable boundary scheduled as a segment-aware seam kernel with
// a solved Eq. (1) gap instead of a disjoint placement.
type SeamSchedule struct {
	// Name identifies the boundary, e.g. "B5>B6".
	Name string
	// Producer is the index of the module whose output the seam consumes;
	// the seam feeds module Producer+1.
	Producer int
	// Spec is the glue op (strided pointwise) the seam kernel executes.
	Spec plan.SeamSpec
	// Plan is the solved seam memory plan; Plan.GapBytes() is the pointer
	// gap the schedule's difference constraint records.
	Plan plan.Plan
}

// UnitKind classifies one execution unit of a plan; its value is the
// unit's kind in a cost estimate.
type UnitKind string

// The unit kinds. Glue is the only kind the verifier does not execute.
const (
	UnitSplit  UnitKind = "split"  // the patch-split region, run as one unit
	UnitModule UnitKind = "module" // one module under its fused, baseline or unfused policy
	UnitSeam   UnitKind = "seam"   // a streamed seam kernel, an entry of NetworkPlan.Seams
	UnitGlue   UnitKind = "glue"   // a disjoint handoff's glue op, modeled by the estimate
)

// Unit is one execution unit of a plan. It holds indices and values only,
// never a pointer, so Fingerprint stays deterministic.
type Unit struct {
	Kind UnitKind
	// Name labels the unit's trace span and estimate, e.g. "S2(fused)",
	// "B1+B2(split×8)", "S2>S3 seam" or "B12>B13 glue".
	Name string
	// Index is the module index of a UnitModule, the Seams index of a
	// UnitSeam and the producer module's index of a UnitGlue. A UnitSplit
	// covers modules 0 through Split.Depth−1 and has Index 0.
	Index int
	// FirstStep and LastStep bound, inclusively, the Steps the unit covers.
	FirstStep, LastStep int
	// In and Out index Tensors: the activation the unit reads and the one
	// it writes. The split region streams its patches from the network
	// input and has In −1.
	In, Out int
	// Glue is, for a UnitGlue at a boundary a seam could express, that
	// seam's spec, which prices the glue op; the zero value otherwise.
	Glue plan.SeamSpec
}

// NetworkPlan is the solved whole-network placement.
type NetworkPlan struct {
	Network     string
	BudgetBytes int // 0 means unlimited
	Modules     []ModuleSchedule
	Tensors     []Tensor
	Steps       []Step
	// Units lists the execution units in Steps order, the order the device
	// runs them. Run, its unit spans and EstimatePlan walk it.
	Units       []Unit
	Constraints []Constraint
	// Split is non-nil when the leading modules are scheduled as a patch
	// -split region (their ModuleSchedules carry PolicySplit).
	Split *SplitSchedule
	// NoSplitPeakBytes is the peak of the best schedule with splitting
	// disabled — the per-module-bounded baseline the split is compared
	// against. Equal to PeakBytes when no split was chosen.
	NoSplitPeakBytes int
	// PeakBytes is the lifetime-aware network peak: the largest step
	// window (including that step's workspace), lower-bounded by each
	// module's executable pool requirement under its chosen policy, so a
	// feasible plan is always executable.
	PeakBytes int
	// PerModuleMaxBytes is the maximum per-module fused footprint — the
	// peak graph.Network.Report() implies when every module gets a fresh
	// pool. The scheduler guarantees PeakBytes ≤ PerModuleMaxBytes
	// whenever no handoff dominates.
	PerModuleMaxBytes int
	// Handoffs counts the inter-module boundaries that required an
	// explicit live-range overlap because the Table-2 shapes don't chain.
	Handoffs int
	// Seams lists the handoffs scheduled as streamed seam kernels
	// (HandoffStream only; always empty under HandoffDisjoint).
	Seams []SeamSchedule
	// StreamedHandoffs counts the streamed entries of Handoffs:
	// len(Seams), kept explicit for reports.
	StreamedHandoffs int
}

// SplitOptions configure the spatial patch-split search.
type SplitOptions struct {
	// Disable turns the split search off entirely.
	Disable bool
	// Depth pins the region to cover exactly the first Depth modules
	// (0 searches all eligible depths). A pinned split is used even when a
	// non-split schedule would peak lower, mirroring Force semantics.
	Depth int
	// Patches pins the spatial patch count (0 searches 2..MaxPatches).
	Patches int
	// MaxPatches caps the searched patch counts (0 means the default 32).
	MaxPatches int
}

// defaultMaxPatches bounds the patch-count search: beyond this the halo
// recompute grows while the windows shrink only marginally.
const defaultMaxPatches = 32

// Objective selects what the schedule search minimizes.
type Objective int

const (
	// MinPeak (the default) minimizes the lifetime-aware network peak —
	// the scheduler's original, memory-only objective.
	MinPeak Objective = iota
	// MinLatency minimizes the estimated execution cycles (the
	// internal/cost model priced under Options.CostProfile) among the
	// candidate schedules that fit Options.BudgetBytes — the
	// "min latency under budget" point of the Pareto frontier. The full
	// frontier itself is exposed by Pareto.
	MinLatency
)

func (o Objective) String() string {
	switch o {
	case MinPeak:
		return "min-peak"
	case MinLatency:
		return "min-latency"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// Options configure the scheduler.
//
// Options is part of the plan-cache identity (lint:cachekey Key): every
// field that can change the solved plan must flow into Key, and
// vmcu-lint's cachekey analyzer rejects a new field that does not reach
// it (annotate lint:nokey with a reason when that is deliberate).
type Options struct {
	// BudgetBytes is the device RAM budget; 0 disables the check.
	BudgetBytes int
	// Force pins named modules to a policy instead of searching. Forcing a
	// policy the module does not support is an error. Modules named here
	// are never covered by the patch-split region.
	Force map[string]Policy
	// Split configures the patch-split dimension of the search.
	Split SplitOptions
	// Handoff selects how non-connectable boundaries are modeled: streamed
	// seam kernels where possible (HandoffStream, the default) or the
	// fully disjoint glue placement everywhere (HandoffDisjoint).
	Handoff HandoffMode
	// Objective selects what the search minimizes: the network peak
	// (MinPeak, the default) or the estimated cycles under the budget
	// (MinLatency).
	Objective Objective
	// CostProfile prices the cost model for the MinLatency objective (and
	// is part of the cache identity). The zero value means CortexM4.
	CostProfile mcu.Profile
	// Tracer opts the scheduler into planner spans (whole-network solves,
	// split-search probes, Pareto enumeration progress); nil is a no-op.
	// lint:nokey deliberately NOT part of the cache identity: Key ignores
	// it, so traced and untraced requests share memoized plans.
	Tracer *obs.Tracer
}

// costProfile resolves the pricing profile, defaulting to CortexM4.
func (o Options) costProfile() mcu.Profile {
	if o.CostProfile.ClockHz == 0 {
		return mcu.CortexM4()
	}
	return o.CostProfile
}

// Plan schedules the network into one pool. It does not consult any cache;
// use Cache.Plan (or the package-level Default cache) for memoized solves.
//
// The search has two dimensions: the per-module policy (fused / unfused /
// baseline) and, unless opts.Split.Disable is set, a spatial patch-split
// region over an eligible prefix of modules. The split is adopted only
// when it lowers the network peak strictly below the best non-split
// schedule — except when pinned via opts.Split.Depth/Patches, which forces
// it exactly like Force pins a policy.
func Plan(net graph.Network, opts Options) (*NetworkPlan, error) {
	if len(net.Modules) == 0 {
		return nil, fmt.Errorf("netplan: network %q has no modules", net.Name)
	}
	for _, cfg := range net.Modules {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("netplan: %w", err)
		}
	}
	for name := range opts.Force {
		known := false
		for _, cfg := range net.Modules {
			if cfg.Name == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("netplan: forced policy names unknown module %q", name)
		}
	}

	if opts.Handoff != HandoffStream && opts.Handoff != HandoffDisjoint {
		return nil, fmt.Errorf("netplan: unknown handoff mode %v", opts.Handoff)
	}
	if opts.Split.Disable && (opts.Split.Depth > 0 || opts.Split.Patches > 0) {
		return nil, fmt.Errorf("netplan: split options conflict: Disable set together with pinned depth/patches (%d/%d)",
			opts.Split.Depth, opts.Split.Patches)
	}
	switch opts.Objective {
	case MinPeak:
	case MinLatency:
		return planMinLatency(net, opts)
	default:
		return nil, fmt.Errorf("netplan: unknown objective %v", opts.Objective)
	}

	return planMinPeak(net, opts)
}

// planMinPeak is the MinPeak objective body: the non-split base solve plus
// the split search, wrapped in one planner span when opts.Tracer is set.
func planMinPeak(net graph.Network, opts Options) (np *NetworkPlan, err error) {
	tr := opts.Tracer
	pspan := tr.Start("netplan.plan", obs.KindPlan)
	pspan.Attr(obs.Str("network", net.Name),
		obs.Str("objective", opts.Objective.String()),
		obs.Str("handoff", opts.Handoff.String()))
	defer func() {
		if np != nil {
			pspan.Attr(obs.Int("peak_bytes", int64(np.PeakBytes)))
		}
		pspan.End()
	}()

	base, err := solveTraced(tr, pspan, net, opts, nil, "no-split")
	if err != nil {
		return nil, err
	}
	best := base
	if !opts.Split.Disable {
		split, err := searchSplit(net, opts, base, tr, pspan)
		if err != nil {
			return nil, err
		}
		if split != nil {
			best = split
		}
	}
	best.NoSplitPeakBytes = base.PeakBytes
	if opts.BudgetBytes > 0 && best.PeakBytes > opts.BudgetBytes {
		return nil, fmt.Errorf("netplan: network %s needs %d bytes, budget is %d (infeasible pool)",
			net.Name, best.PeakBytes, opts.BudgetBytes)
	}
	return best, nil
}

// solveTraced wraps one schedule solve in a planner span naming the
// candidate ("no-split", "split 2×8 probe", ...) and recording its peak.
func solveTraced(tr *obs.Tracer, parent *obs.Span, net graph.Network, opts Options, sp *plan.SplitPlan, label string) (*NetworkPlan, error) {
	s := tr.StartChild(parent, "netplan.solve", obs.KindPlan)
	s.Attr(obs.Str("candidate", label))
	np, err := solve(net, opts, sp)
	if err == nil {
		s.Attr(obs.Int("peak_bytes", int64(np.PeakBytes)))
	} else {
		s.Attr(obs.Str("error", err.Error()))
	}
	s.End()
	return np, err
}

// splitDepthLimit returns the longest split-eligible prefix: non-residual
// modules, shape-connectable seams, and no explicitly forced policies.
func splitDepthLimit(net graph.Network, opts Options) int {
	limit := 0
	for i, cfg := range net.Modules {
		if cfg.Residual() {
			break
		}
		if _, forced := opts.Force[cfg.Name]; forced {
			break
		}
		if i > 0 && !plan.Connectable(net.Modules[i-1], cfg) {
			break
		}
		limit = i + 1
	}
	return limit
}

// searchSplit enumerates (depth, patches) split candidates and returns the
// winning plan, or nil when no candidate beats the non-split base. Pinned
// depth/patch options restrict the enumeration and force adoption; pinning
// an ineligible region is an error.
func searchSplit(net graph.Network, opts Options, base *NetworkPlan, tr *obs.Tracer, pspan *obs.Span) (*NetworkPlan, error) {
	pinned := opts.Split.Depth > 0 || opts.Split.Patches > 0
	limit := splitDepthLimit(net, opts)
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

	var best *NetworkPlan
	var bestSP plan.SplitPlan
	consider := func(np *NetworkPlan, sp plan.SplitPlan) {
		// Minimize the peak; among equal peaks prefer the least halo
		// recompute (fewer, larger patches).
		if best == nil || np.PeakBytes < best.PeakBytes ||
			(np.PeakBytes == best.PeakBytes && sp.RecomputedRows < bestSP.RecomputedRows) {
			best, bestSP = np, sp
		}
	}
	for _, k := range depths {
		mods := net.Modules[:k]
		if opts.Split.Patches > 0 {
			// Pinned patch count: a single exact candidate; out-of-range
			// pins surface PlanSplit's error instead of a generic failure.
			sp, err := plan.PlanSplit(plan.SplitSpec{Modules: mods, Patches: opts.Split.Patches})
			if err != nil {
				return nil, fmt.Errorf("netplan: %w", err)
			}
			np, err := solveTraced(tr, pspan, net, opts, &sp,
				fmt.Sprintf("split %d×%d", k, opts.Split.Patches))
			if err != nil {
				return nil, err
			}
			consider(np, sp)
			continue
		}

		// The region's row geometry is cheap (no solve), and within one
		// depth the network peak is max(region footprint, the rest of the
		// schedule) with the rest independent of the patch count. So: one
		// probe solve at the footprint-minimal patch count yields the
		// depth's best achievable peak, and the final candidate is the
		// SMALLEST patch count whose footprint still meets it — the least
		// halo recompute at that peak. Two solves per depth instead of one
		// per patch count.
		_, _, _, _, h3, _ := mods[k-1].Grids()
		hi := maxPatches
		if hi > h3 {
			hi = h3
		}
		plans := make(map[int]plan.SplitPlan, hi-1)
		probe, probeFoot := 0, 0
		for n := 2; n <= hi; n++ {
			sp, err := plan.PlanSplit(plan.SplitSpec{Modules: mods, Patches: n})
			if err != nil {
				continue
			}
			plans[n] = sp
			if probe == 0 || sp.FootprintBytes < probeFoot {
				probe, probeFoot = n, sp.FootprintBytes
			}
		}
		if probe == 0 {
			continue
		}
		spProbe := plans[probe]
		npProbe, err := solveTraced(tr, pspan, net, opts, &spProbe,
			fmt.Sprintf("split %d×%d probe", k, probe))
		if err != nil {
			if pinned {
				return nil, err
			}
			continue
		}
		chosen := probe
		for n := 2; n < probe; n++ {
			if sp, ok := plans[n]; ok && sp.FootprintBytes <= npProbe.PeakBytes {
				chosen = n
				break
			}
		}
		if chosen == probe {
			consider(npProbe, spProbe)
			continue
		}
		spBest := plans[chosen]
		npBest, err := solveTraced(tr, pspan, net, opts, &spBest,
			fmt.Sprintf("split %d×%d", k, chosen))
		if err != nil || npBest.PeakBytes > npProbe.PeakBytes {
			// The cheap model mispredicted; keep the probe's exact result.
			consider(npProbe, spProbe)
			continue
		}
		consider(npBest, spBest)
	}
	if best == nil {
		if pinned {
			return nil, fmt.Errorf("netplan: pinned split produced no feasible candidate")
		}
		return nil, nil
	}
	if !pinned && best.PeakBytes >= base.PeakBytes {
		return nil, nil
	}
	return best, nil
}

// solve builds and solves one schedule: the per-module policy search over
// the whole network, with the leading modules replaced by a patch-split
// region when sp is non-nil.
func solve(net graph.Network, opts Options, sp *plan.SplitPlan) (*NetworkPlan, error) {
	np := &NetworkPlan{Network: net.Name, BudgetBytes: opts.BudgetBytes}

	var cur int // index of the tensor currently holding the live activation
	start := 0
	if sp != nil {
		cur = np.buildSplitRegion(sp)
		start = len(sp.Spec.Modules)
		np.Split = &SplitSchedule{Depth: start, Patches: sp.Spec.Patches, Plan: *sp}
		if start < len(net.Modules) {
			if err := np.crossBoundary(opts.Handoff, start-1, net.Modules[start-1], net.Modules[start], &cur); err != nil {
				return nil, err
			}
		}
	} else {
		first := net.Modules[0]
		cur = np.addTensor("input", first.H*first.W*first.Cin)
	}

	for mi := start; mi < len(net.Modules); mi++ {
		cfg := net.Modules[mi]
		forced, hasForce := opts.Force[cfg.Name]
		ms, err := scheduleModule(cfg, forced, hasForce)
		if err != nil {
			return nil, err
		}
		u := Unit{Kind: UnitModule, Name: fmt.Sprintf("%s(%s)", cfg.Name, ms.Policy), Index: mi,
			FirstStep: len(np.Steps), In: cur}
		switch ms.Policy {
		case PolicyFused, PolicyBaseline:
			p := ms.Plans[0]
			out := np.addTensor(cfg.Name+".out", p.OutBytes)
			np.constrain(cur, out, p.GapBytes())
			np.addStep(u.Name, mi, p.WorkspaceBytes, cur, out)
			cur = out
		case PolicyUnfused:
			names := [3]string{".B", ".C", ".out"}
			kinds := [3]string{".conv1", ".dw", ".conv2"}
			residual := cfg.Residual()
			if residual {
				names[2] = ".D"
			}
			in := cur
			for si, sp := range ms.Plans {
				out := np.addTensor(cfg.Name+names[si], sp.OutBytes)
				np.constrain(cur, out, sp.GapBytes())
				live := []int{cur, out}
				if residual && cur != in {
					// The skip add pins A across the whole chain.
					live = append(live, in)
				}
				np.addStep(cfg.Name+kinds[si], mi, sp.WorkspaceBytes, live...)
				cur = out
			}
			if residual {
				// The elementwise add writes E over D's storage (equality
				// pair) while still reading the pinned input.
				e := np.addTensor(cfg.Name+".out", np.Tensors[cur].Bytes)
				np.constrain(cur, e, 0)
				np.constrain(e, cur, 0)
				np.addStep(cfg.Name+".add", mi, 0, in, cur, e)
				cur = e
			}
		}
		u.Out = cur
		np.addUnit(u)
		np.Modules = append(np.Modules, ms)
		if f := ms.FusedBytes; f > np.PerModuleMaxBytes {
			np.PerModuleMaxBytes = f
		}

		if mi+1 < len(net.Modules) {
			if err := np.crossBoundary(opts.Handoff, mi, cfg, net.Modules[mi+1], &cur); err != nil {
				return nil, err
			}
		}
	}

	if err := np.solveOffsets(cur); err != nil {
		return nil, err
	}
	np.computeWindows()
	return np, nil
}

func (np *NetworkPlan) addTensor(name string, bytes int) int {
	np.Tensors = append(np.Tensors, Tensor{Name: name, Bytes: bytes})
	return len(np.Tensors) - 1
}

func (np *NetworkPlan) addStep(name string, module, ws int, live ...int) {
	np.Steps = append(np.Steps, Step{Name: name, Module: module, WorkspaceBytes: ws, Live: live})
}

func (np *NetworkPlan) constrain(hi, lo, gap int) {
	np.Constraints = append(np.Constraints, Constraint{Hi: hi, Lo: lo, Gap: gap})
}

// addUnit appends u, closing it at the last step appended.
func (np *NetworkPlan) addUnit(u Unit) {
	u.LastStep = len(np.Steps) - 1
	np.Units = append(np.Units, u)
}

// crossBoundary links two adjacent modules' activations: connectable
// boundaries share one tensor. Non-connectable boundaries become either a
// streamed seam step — the glue op scheduled as a real kernel whose
// solved Eq. (1) gap lets the consumer input overlap freed producer
// segments — or, when no seam expresses the boundary (or under
// HandoffDisjoint), an opaque handoff step keeping both activations live
// and fully disjoint.
func (np *NetworkPlan) crossBoundary(mode HandoffMode, producer int, cfg, next plan.Bottleneck, cur *int) error {
	inBytes := next.H * next.W * next.Cin
	if plan.Connectable(cfg, next) {
		// Connectable boundary: the output tensor is the next module's
		// input; sizes must agree exactly.
		if np.Tensors[*cur].Bytes != inBytes {
			return fmt.Errorf("netplan: %s output %dB does not match %s input %dB",
				cfg.Name, np.Tensors[*cur].Bytes, next.Name, inBytes)
		}
		return nil
	}
	np.Handoffs++
	in := np.addTensor(next.Name+".in", inBytes)
	u := Unit{FirstStep: len(np.Steps), In: *cur, Out: in}
	spec, seam := plan.SeamOf(cfg, next)
	if seam && mode == HandoffStream {
		sp := plan.PlanSeam(spec)
		if sp.OutBytes != inBytes {
			return fmt.Errorf("netplan: seam %s output %dB does not match %s input %dB",
				spec.Name, sp.OutBytes, next.Name, inBytes)
		}
		u.Kind, u.Name, u.Index = UnitSeam, spec.Name+" seam", len(np.Seams)
		np.constrain(*cur, in, sp.GapBytes())
		np.addStep(u.Name, -1, sp.WorkspaceBytes, *cur, in)
		np.Seams = append(np.Seams, SeamSchedule{
			Name: spec.Name, Producer: producer, Spec: spec, Plan: sp,
		})
		np.StreamedHandoffs++
	} else {
		// Disjoint handoff: the opaque glue op reads the old activation
		// while writing the new one — both live, fully disjoint.
		boundary := cfg.Name + ">" + next.Name
		u.Kind, u.Name, u.Index = UnitGlue, boundary+" glue", producer
		if seam {
			u.Glue = spec
		}
		np.constrain(*cur, in, inBytes)
		np.addStep(boundary+" handoff", -1, 0, *cur, in)
	}
	np.addUnit(u)
	*cur = in
	return nil
}

// buildSplitRegion appends the patch-split region's tensors, steps,
// constraints, module schedules and its one unit to the plan, returning
// the join tensor's index (the region's output activation).
//
// Every patch tensor is pinned by an equality pair of difference
// constraints to the join tensor at its ping-pong slot offset, so the
// solved placement reproduces graph.RunSplitRegion's pool layout exactly
// and every branch of the live-range graph stays reachable from the
// offset anchor.
func (np *NetworkPlan) buildSplitRegion(sp *plan.SplitPlan) int {
	mods := sp.Spec.Modules
	k := len(mods)
	join := np.addTensor(mods[k-1].Name+".out", sp.JoinBytes)
	name := mods[0].Name
	if k > 1 {
		name += "+" + mods[k-1].Name
	}
	u := Unit{Kind: UnitSplit, Name: fmt.Sprintf("%s(split×%d)", name, sp.Spec.Patches),
		FirstStep: len(np.Steps), In: -1, Out: join}

	for _, cfg := range mods {
		fused := plan.PlanBottleneckModule(cfg)
		np.Modules = append(np.Modules, ModuleSchedule{
			Name:   cfg.Name,
			Policy: PolicySplit,
			// The region is one executable unit; each covered module
			// carries its requirement so feasibility survives any maximum.
			WindowBytes: sp.FootprintBytes,
			FusedBytes:  fused.FootprintBytes,
		})
		if fused.FootprintBytes > np.PerModuleMaxBytes {
			np.PerModuleMaxBytes = fused.FootprintBytes
		}
	}

	t := make([]int, k)
	for j := range sp.Patches {
		for i := 0; i < k; i++ {
			var name string
			if i == 0 {
				name = fmt.Sprintf("%s.in.p%d", mods[0].Name, j)
			} else {
				name = fmt.Sprintf("%s.out.p%d", mods[i-1].Name, j)
			}
			t[i] = np.addTensor(name, sp.PatchBytes(i, j))
			// Equality: off(t) − off(join) = SideOffset(i).
			np.constrain(t[i], join, sp.SideOffset(i))
			np.constrain(join, t[i], -sp.SideOffset(i))
		}
		for i := 0; i < k; i++ {
			live := []int{join, t[i]}
			if i+1 < k {
				live = append(live, t[i+1])
			}
			np.addStep(fmt.Sprintf("%s.p%d(split)", mods[i].Name, j), i, mods[i].WorkspaceBytes(), live...)
		}
	}
	np.addUnit(u)
	return join
}

// solveOffsets runs one longest-path pass of the difference system from the
// final tensor (anchored at offset 0), assigning every activation its
// minimal feasible virtual offset. A tensor with no constraint path from
// the anchor is an error: its placement would be unconstrained and it
// would silently land at offset 0, overlapping the anchored output. (On a
// linear chain every tensor is reachable by construction; the branching
// live-range graphs of the patch-split region made this path live.)
func (np *NetworkPlan) solveOffsets(anchor int) error {
	sys := ilp.NewDiffSystem(len(np.Tensors))
	for _, c := range np.Constraints {
		sys.AddGE(c.Hi, c.Lo, int64(c.Gap))
	}
	dist, reach, err := sys.LongestPathsFrom(anchor)
	if err != nil {
		return fmt.Errorf("netplan: %w", err)
	}
	for i := range np.Tensors {
		if !reach[i] {
			return fmt.Errorf("netplan: tensor %s unreachable from the offset anchor %s (placement would be unconstrained)",
				np.Tensors[i].Name, np.Tensors[anchor].Name)
		}
		np.Tensors[i].Offset = int(dist[i])
	}
	return nil
}

// computeWindows derives per-step live windows, per-tensor live ranges, and
// the network peak from the solved offsets.
func (np *NetworkPlan) computeWindows() {
	for i := range np.Tensors {
		np.Tensors[i].Birth = -1
		np.Tensors[i].Death = -1
	}
	np.PeakBytes = 0
	for si := range np.Steps {
		st := &np.Steps[si]
		lo, hi := 0, 0
		for li, ti := range st.Live {
			t := &np.Tensors[ti]
			if t.Birth < 0 {
				t.Birth = si
			}
			t.Death = si
			if li == 0 || t.Offset < lo {
				lo = t.Offset
			}
			if li == 0 || t.Offset+t.Bytes > hi {
				hi = t.Offset + t.Bytes
			}
		}
		st.WindowBytes = hi - lo + st.WorkspaceBytes
		if st.WindowBytes > np.PeakBytes {
			np.PeakBytes = st.WindowBytes
		}
	}
	// Each module's executor allocates its policy's own pool requirement
	// (e.g. the whole chain footprint for unfused modules), which can
	// exceed the per-step windows; the network peak must cover it so that
	// a plan accepted under the budget always runs.
	for _, ms := range np.Modules {
		if ms.WindowBytes > np.PeakBytes {
			np.PeakBytes = ms.WindowBytes
		}
	}
}

type candidate struct {
	policy Policy
	plans  []plan.Plan
	window int
}

// scheduleModule enumerates the valid policies for one module and picks the
// one minimizing the module's pool window (fused wins ties).
func scheduleModule(cfg plan.Bottleneck, forced Policy, hasForce bool) (ModuleSchedule, error) {
	fused := plan.PlanBottleneckModule(cfg)
	cands := []candidate{{PolicyFused, []plan.Plan{fused}, executableFused(fused)}}
	if stages, ok := plan.UnfusedStages(cfg); ok {
		// The unfused window is the chain's one-pool footprint — exactly
		// what graph.RunModuleUnfused allocates — so plan-time feasibility
		// implies run-time feasibility.
		if cp, err := plan.PlanChain(stages); err == nil {
			cands = append(cands, candidate{PolicyUnfused, stages, cp.PoolBytes()})
		}
	}
	if hasForce && forced == PolicyBaseline {
		// The disjoint baseline can never beat the minimal-gap fused plan,
		// so it only enters the candidate set when pinned explicitly.
		base := baselineFrom(fused, cfg.Name)
		cands = append(cands, candidate{PolicyBaseline, []plan.Plan{base}, executableFused(base)})
	}

	best := cands[0]
	if hasForce {
		found := false
		for _, c := range cands {
			if c.policy == forced {
				best, found = c, true
				break
			}
		}
		if !found {
			return ModuleSchedule{}, fmt.Errorf("netplan: module %s does not support forced policy %v", cfg.Name, forced)
		}
	} else {
		for _, c := range cands[1:] {
			if c.window < best.window {
				best = c
			}
		}
	}
	return ModuleSchedule{
		Name:        cfg.Name,
		Policy:      best.policy,
		Plans:       best.plans,
		WindowBytes: best.window,
		FusedBytes:  fused.FootprintBytes,
	}, nil
}

// BaselinePlan is the disjoint fallback placement: the fused kernel with a
// pointer gap wide enough that the output never reuses freed input
// segments, mirroring TinyEngine's separate input/output buffers.
func BaselinePlan(cfg plan.Bottleneck) plan.Plan {
	return baselineFrom(plan.PlanBottleneckModule(cfg), cfg.Name)
}

// baselineFrom widens an already-solved fused plan to the disjoint
// placement without re-running the module solve.
func baselineFrom(fused plan.Plan, name string) plan.Plan {
	p := plan.WithGapSegs(fused, (fused.OutBytes+fused.SegBytes-1)/fused.SegBytes)
	p.Note = fmt.Sprintf("bottleneck %s (baseline: disjoint A and E)", name)
	return p
}

// executableFused is the RAM graph.RunModuleWithPlan actually allocates for
// a fused/baseline plan: the activation span rounded up to a whole number
// of segments, plus the workspace. It can exceed FootprintBytes by up to
// SegBytes−1 when the span is not segment-aligned (never on the Table-2
// backbones, but the feasibility guarantee must not depend on that).
func executableFused(p plan.Plan) int { return p.PoolBytes() + p.WorkspaceBytes }

// Fingerprint returns a deterministic serialization of the whole plan,
// used to prove cache hits are byte-identical to cold solves. The split
// schedule is flattened by value — printing the pointer would bake a heap
// address into the fingerprint and make identical solves compare unequal.
func (np *NetworkPlan) Fingerprint() string {
	flat := *np
	flat.Split = nil
	split := "none"
	if np.Split != nil {
		split = fmt.Sprintf("%+v", *np.Split)
	}
	return fmt.Sprintf("%+v|split=%s", flat, split)
}
