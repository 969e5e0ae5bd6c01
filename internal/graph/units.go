package graph

import (
	"fmt"
	"math/rand"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// RunModule plans and executes one module on a pooled device reset to
// New's state, with deterministic random weights and input, verifying the
// fused kernel's output against the golden composition.
func RunModule(profile mcu.Profile, cfg plan.Bottleneck, seed int64) (ExecResult, error) {
	return RunModuleWithPlan(profile, cfg, plan.PlanBottleneckModule(cfg), seed)
}

// RunModuleWithPlan is ExecModule with the module's weights and then its
// input drawn from one stream seeded by seed.
func RunModuleWithPlan(profile mcu.Profile, cfg plan.Bottleneck, p plan.Plan, seed int64) (ExecResult, error) {
	rng := rand.New(rand.NewSource(seed))
	mw, err := drawModule(rng, cfg)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecModule(profile, mw, p, rng)
}

// ExecModule runs the fused kernel of one module with weights mw through
// the unit harness under an explicit memory plan: the minimal solved plan,
// or a scheduler-chosen variant such as the disjoint baseline placement
// (netplan.PolicyBaseline). A gap wider than the solved minimum is
// strictly safer; the shadow-state checker still proves no live byte is
// clobbered.
func ExecModule(profile mcu.Profile, mw *ModuleWeights, p plan.Plan, rng *rand.Rand) (ExecResult, error) {
	return execModule(profile, mw, p, rng, poolAt{})
}

// execModule is ExecModule with the pool at at.
func execModule(profile mcu.Profile, mw *ModuleWeights, p plan.Plan, rng *rand.Rand, at poolAt) (ExecResult, error) {
	cfg := mw.Cfg
	var kn *kernels.Bottleneck
	u := unit{
		kind: "module", name: cfg.Name, plan: p,
		poolBytes: p.PoolBytes(), wsBytes: p.WorkspaceBytes, flashBytes: mw.Image.Bytes() + flashSlack,
		inBytes: cfg.H * cfg.W * cfg.Cin, inName: cfg.Name + ".A", inOff: p.GapBytes(),
	}
	return u.run(profile, rng, at, &unitCode{
		load: func(dev *mcu.Device) (err error) {
			kn, err = kernels.LoadBottleneck(dev, cfg, mw.BottleneckWeights, mw.Image)
			return err
		},
		step: func(ctx *intrin.Ctx, _ []int8, in kernels.Placement, wsBase int) (kernels.Placement, error) {
			return kn.Run(ctx, p, in, wsBase)
		},
		golden: func(hs *harness, in []int8) []int8 { return hs.goldenModule(0, mw, in, cfg.Residual()) },
	})
}

// RunModuleUnfused is ExecModuleUnfused with the module's weights and then
// its input drawn from one stream seeded by seed.
func RunModuleUnfused(profile mcu.Profile, cfg plan.Bottleneck, seed int64) (ExecResult, error) {
	rng := rand.New(rand.NewSource(seed))
	mw, err := drawModule(rng, cfg)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecModuleUnfused(profile, mw, rng)
}

// ExecModuleUnfused runs the layers of a pointwise-stride-1 inverted
// bottleneck with weights mw separately through the unit harness, each
// with its own §4 plan, chained through one circular pool at the offsets
// plan.PlanChain solves (Eq. 2). The layers read mw's one Flash image, the
// fused kernel's. The expansion tensor materializes, which the fused
// kernel avoids: this is the fusion ablation and, computing each expansion
// pixel once instead of once per depthwise window row, the latency end of
// the scheduler's policy tradeoff. A residual module pins its input
// disjoint above the chain (conv1 keeps it) and finishes with the
// elementwise add writing E over D's storage.
func ExecModuleUnfused(profile mcu.Profile, mw *ModuleWeights, rng *rand.Rand) (ExecResult, error) {
	return execUnfused(profile, mw, rng, poolAt{})
}

// execUnfused is ExecModuleUnfused with the pool at at.
func execUnfused(profile mcu.Profile, mw *ModuleWeights, rng *rand.Rand, at poolAt) (ExecResult, error) {
	cfg := mw.Cfg
	stages, eligible := plan.UnfusedStages(cfg)
	if !eligible {
		return ExecResult{}, fmt.Errorf("graph: module %s does not support unfused execution (strided pointwise or unchainable segments)", cfg.Name)
	}
	chain, err := plan.PlanChainWithin(stages, profile.RAMBytes())
	if err != nil {
		return ExecResult{}, fmt.Errorf("graph: unfused %s: %w", cfg.Name, err)
	}
	h1, w1, h2, w2, _, _ := cfg.Grids()
	var conv1, conv2 kernels.Pointwise
	var dw kernels.Depthwise
	u := unit{
		kind: "module", name: cfg.Name + "-unfused",
		plan: plan.Plan{
			SegBytes:       4, // the granularity ChainPlan.PoolBytes rounds to
			InBytes:        cfg.H * cfg.W * cfg.Cin,
			OutBytes:       h2 * w2 * cfg.Cout,
			FootprintBytes: chain.FootprintBytes,
			Note:           "unfused chain (per-layer plans, Eq. 2 offsets)",
		},
		poolBytes: chain.PoolBytes(), flashBytes: mw.Image.Bytes() + flashSlack,
		inBytes: cfg.H * cfg.W * cfg.Cin, inName: cfg.Name + ".A", inOff: chain.Offsets[0],
	}
	return u.run(profile, rng, at, &unitCode{
		load: func(dev *mcu.Device) error {
			base, err := mw.Image.Load(dev)
			if err != nil {
				return err
			}
			im, wt := mw.Image, mw.BottleneckWeights
			conv1 = kernels.Pointwise{H: cfg.H, W: cfg.W, C: cfg.Cin, K: cfg.Cmid, Req: wt.Req1,
				Weight: im.Part(base, 0), Bias: im.Part(base, 1), KeepInput: cfg.Residual()}
			dw = kernels.Depthwise{H: h1, W: w1, C: cfg.Cmid, R: cfg.R, S: cfg.S,
				Stride: cfg.S2, Pad: cfg.Pad(), Req: wt.ReqD, Weight: im.Part(base, 2), Bias: im.Part(base, 3)}
			conv2 = kernels.Pointwise{H: h2, W: w2, C: cfg.Cmid, K: cfg.Cout, Req: wt.Req2,
				Weight: im.Part(base, 4), Bias: im.Part(base, 5)}
			return nil
		},
		step: func(ctx *intrin.Ctx, _ []int8, aPl kernels.Placement, _ int) (kernels.Placement, error) {
			bPl, err := conv1.Run(ctx, stages[0], aPl)
			if err != nil {
				return bPl, err
			}
			cPl, err := dw.Run(ctx, stages[1], bPl)
			if err != nil {
				return cPl, err
			}
			dPl, err := conv2.Run(ctx, stages[2], cPl)
			if err != nil || !cfg.Residual() {
				return dPl, err
			}
			return (&kernels.Add{N: dPl.Bytes}).Run(ctx, dPl, aPl)
		},
		golden: func(hs *harness, in []int8) []int8 { return hs.goldenModule(0, mw, in, cfg.Residual()) },
	})
}

// RunSeam is ExecSeam with the seam's weights and then its input drawn
// from one stream seeded by seed.
func RunSeam(profile mcu.Profile, spec plan.SeamSpec, p plan.Plan, seed int64) (ExecResult, error) {
	rng := rand.New(rand.NewSource(seed))
	sw, err := drawSeam(rng, spec)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecSeam(profile, sw, p, rng)
}

// ExecSeam runs one streamed inter-module seam (the elided glue op the
// whole-network scheduler models at a non-connectable boundary) with
// weights sw through the unit harness under an explicit memory plan,
// against the golden strided pointwise. As in ExecModule, the plan's gap
// may exceed the solved minimum.
func ExecSeam(profile mcu.Profile, sw *SeamWeights, p plan.Plan, rng *rand.Rand) (ExecResult, error) {
	spec := sw.Spec
	var kn kernels.Seam
	u := unit{
		kind: "seam", name: spec.Name, plan: p,
		poolBytes: p.PoolBytes(), wsBytes: p.WorkspaceBytes, flashBytes: sw.Image.Bytes() + flashSlack,
		inBytes: spec.InBytes(), inName: spec.Name + ".in", inOff: p.GapBytes(),
	}
	return u.run(profile, rng, poolAt{}, &unitCode{
		load: func(dev *mcu.Device) error {
			base, err := sw.Image.Load(dev)
			if err != nil {
				return err
			}
			kn = kernels.Seam{Spec: spec, Req: sw.Req, Weight: sw.Image.Part(base, 0), Bias: sw.Image.Part(base, 1)}
			return nil
		},
		step: func(ctx *intrin.Ctx, _ []int8, in kernels.Placement, _ int) (kernels.Placement, error) {
			return kn.Run(ctx, p, in)
		},
		golden: func(hs *harness, in []int8) []int8 {
			hs.want[0] = hs.golden.Pointwise(hs.want[0], in, spec.H, spec.W, spec.Cin, spec.Cout, spec.Stride,
				sw.W, sw.Bias, sw.Req)
			return hs.want[0]
		},
	})
}

// RunSplitRegion is ExecSplitRegion with seeded weights: module i of the
// region draws its weights from seed+i, exactly as the per-module
// executors draw theirs, so a split region is verified against the same
// parameters an unsplit run of the same modules would use. The input is
// drawn after module 0's weights, from the same stream, as
// RunModuleWithPlan draws it.
func RunSplitRegion(profile mcu.Profile, sp plan.SplitPlan, seed int64) (ExecResult, error) {
	mods := sp.Spec.Modules
	mws := make([]*ModuleWeights, len(mods))
	var rng0 *rand.Rand
	for i, cfg := range mods {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		if i == 0 {
			rng0 = rng
		}
		var err error
		if mws[i], err = drawModule(rng, cfg); err != nil {
			return ExecResult{}, err
		}
	}
	return ExecSplitRegion(profile, sp, mws, rng0)
}

// ExecSplitRegion runs a patch-split prefix region (plan.SplitPlan) patch
// by patch through the unit harness, against the golden composition of
// the region's modules.
//
// The pool layout is exactly the SplitPlan's: the join region at offset 0,
// then the two ping-pong scratch slots. Each patch streams its input-row
// window (with halo) into slot 0 — modeling MCUNetV2-style patch-wise
// input acquisition, where the full high-resolution plane never has to be
// resident — runs each module's fused kernel over the patch rows, frees
// every sub-chain tensor as soon as its consumer finishes, and writes the
// final module's rows straight into the join region. Halo rows are
// recomputed by each patch, so patches are fully independent.
//
// mws holds the region's module weights, in order; their Flash images are
// loaded back to back.
func ExecSplitRegion(profile mcu.Profile, sp plan.SplitPlan, mws []*ModuleWeights, rng *rand.Rand) (ExecResult, error) {
	mods := sp.Spec.Modules
	if err := plan.CanSplit(mods); err != nil {
		return ExecResult{}, fmt.Errorf("graph: %w", err)
	}
	if err := checkModules(mods, mws); err != nil {
		return ExecResult{}, err
	}
	name, first := regionName(sp), mods[0]
	flashNeed := 0
	for _, mw := range mws {
		flashNeed += mw.Image.Bytes() + flashSlack
	}
	kns := make([]*kernels.Bottleneck, len(mods))
	u := unit{
		kind: "split region", name: name,
		plan: plan.Plan{
			SegBytes:       sp.SegBytes,
			InBytes:        first.H * first.W * first.Cin,
			OutBytes:       sp.JoinBytes,
			WorkspaceBytes: sp.WorkspaceBytes,
			FootprintBytes: sp.FootprintBytes,
			Note: fmt.Sprintf("patch-split region %s (%d patches, %d halo rows recomputed)",
				name, len(sp.Patches), sp.RecomputedRows),
		},
		poolBytes: sp.PoolBytes(), wsBytes: sp.WorkspaceBytes, flashBytes: flashNeed,
		inBytes: first.H * first.W * first.Cin,
	}
	return u.run(profile, rng, poolAt{}, &unitCode{
		load: func(dev *mcu.Device) (err error) {
			for i, mw := range mws {
				if kns[i], err = kernels.LoadBottleneck(dev, mw.Cfg, mw.BottleneckWeights, mw.Image); err != nil {
					return err
				}
			}
			return nil
		},
		step: func(ctx *intrin.Ctx, in []int8, _ kernels.Placement, wsBase int) (kernels.Placement, error) {
			return streamSplit(ctx, sp, name, kns, in, wsBase)
		},
		golden: func(hs *harness, in []int8) []int8 {
			// Module i reads module i-1's golden output and writes the
			// other ping-pong buffer.
			want := in
			for i, mw := range mws {
				want = hs.goldenModule(i%2, mw, want, false)
			}
			return want
		},
	})
}

// streamSplit is the split region's step: it streams each patch's
// input-row window of in into the pool and runs the region's kernels kns
// over it, re-joining the final rows at pool offset 0.
func streamSplit(ctx *intrin.Ctx, sp plan.SplitPlan, name string, kns []*kernels.Bottleneck, in []int8, wsBase int) (kernels.Placement, error) {
	joinPl := kernels.Placement{ID: ctx.Dev.NewTensorID(name + ".join"), Off: 0, Bytes: sp.JoinBytes}
	inRowBytes := sp.RowBytes[0]
	for j, pp := range sp.Patches {
		// Stream the patch's input-row window (with halo) into slot 0.
		cur := kernels.PlaceInput(ctx,
			fmt.Sprintf("%s.in.p%d", name, j),
			in[pp.Rows[0].Lo*inRowBytes:pp.Rows[0].Hi*inRowBytes],
			sp.SideOffset(0))
		for i, kn := range kns {
			outRows := pp.Rows[i+1]
			out, outRowBase := joinPl, 0
			if i < len(kns)-1 {
				out = kernels.Placement{
					ID:    ctx.Dev.NewTensorID(fmt.Sprintf("%s.t%d.p%d", name, i+1, j)),
					Off:   sp.SideOffset(i + 1),
					Bytes: sp.PatchBytes(i+1, j),
				}
				outRowBase = outRows.Lo
			}
			err := kn.RunPatch(ctx, cur, out, wsBase, kernels.Patch{
				OutRow0: outRows.Lo, OutRows: outRows.Len(),
				InRow0: pp.Rows[i].Lo, InRows: pp.Rows[i].Len(),
				OutRowBase: outRowBase,
			})
			if err != nil {
				return kernels.Placement{}, fmt.Errorf("graph: %s patch %d module %s: %w", name, j, kn.Cfg.Name, err)
			}
			// The consumed tensor dies with its consumer; the join lives on.
			kernels.FreeAll(ctx, cur)
			cur = out
		}
	}
	return joinPl, nil
}

// regionName labels a split region, e.g. "B1+B2(split×8)".
func regionName(sp plan.SplitPlan) string {
	mods := sp.Spec.Modules
	if len(mods) == 1 {
		return fmt.Sprintf("%s(split×%d)", mods[0].Name, sp.Spec.Patches)
	}
	return fmt.Sprintf("%s+%s(split×%d)", mods[0].Name, mods[len(mods)-1].Name, sp.Spec.Patches)
}
