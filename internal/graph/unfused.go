package graph

import (
	"fmt"
	"math/rand"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
)

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

// ExecModuleUnfused executes the layers of a pointwise-stride-1 inverted
// bottleneck with weights mw separately, on a pooled device reset to New's
// state — each with its own §4 single-layer plan — chained through one
// circular pool with the offsets solved by plan.PlanChain (the Eq. 2
// difference system). The three layers read their weights from mw's one
// Flash image, the same image the fused kernel loads; the input is drawn
// from rng. The intermediate expansion tensor materializes in full, which
// is exactly what the fused kernel avoids; this is the fusion ablation,
// and — because it computes each expansion pixel once instead of once per
// depthwise window row — the latency end of the scheduler's policy
// tradeoff. A residual module pins its input disjoint above the chain
// (conv1 keeps it) and finishes with the elementwise add writing E over
// D's storage.
func ExecModuleUnfused(profile mcu.Profile, mw *ModuleWeights, rng *rand.Rand) (ExecResult, error) {
	cfg := mw.Cfg
	stages, eligible := plan.UnfusedStages(cfg)
	if !eligible {
		return ExecResult{}, fmt.Errorf("graph: module %s does not support unfused execution (strided pointwise or unchainable segments)", cfg.Name)
	}
	residual := cfg.Residual()
	h1, w1, h2, w2, _, _ := cfg.Grids()
	pad := cfg.Pad()
	p1, pd, p2 := stages[0], stages[1], stages[2]
	chain, err := plan.PlanChainWithin(stages, profile.RAMBytes())
	if err != nil {
		return ExecResult{}, fmt.Errorf("graph: unfused %s: %w", cfg.Name, err)
	}

	dev := acquireDevice(profile, mw.Image.Bytes()+flashSlack)
	defer releaseDevice(dev)
	// The kernels address the pool byte-wise; ChainPlan.PoolBytes rounds
	// the footprint to this granularity, and NewPool rejects a capacity
	// that is not a multiple of it.
	const segGran = 4
	pool, err := seg.NewPool(dev, 0, chain.PoolBytes(), segGran)
	if err != nil {
		return ExecResult{}, err
	}
	ctx := intrin.NewCtx(dev, pool)
	base, err := mw.Image.Load(dev)
	if err != nil {
		return ExecResult{}, err
	}
	im, wt := mw.Image, mw.BottleneckWeights
	conv1 := &kernels.Pointwise{H: cfg.H, W: cfg.W, C: cfg.Cin, K: cfg.Cmid, Req: wt.Req1,
		Weight: im.Part(base, 0), Bias: im.Part(base, 1), KeepInput: residual}
	dw := &kernels.Depthwise{H: h1, W: w1, C: cfg.Cmid, R: cfg.R, S: cfg.S,
		Stride: cfg.S2, Pad: pad, Req: wt.ReqD, Weight: im.Part(base, 2), Bias: im.Part(base, 3)}
	conv2 := &kernels.Pointwise{H: h2, W: w2, C: cfg.Cmid, K: cfg.Cout, Req: wt.Req2,
		Weight: im.Part(base, 4), Bias: im.Part(base, 5)}

	hs := acquireHarness()
	defer hs.release()
	in := hs.draw(rng, cfg.H*cfg.W*cfg.Cin)
	aPl := kernels.PlaceInput(ctx, cfg.Name+".A", in, chain.Offsets[0])
	dev.ResetPeak()
	bPl, err := conv1.Run(ctx, p1, aPl)
	if err != nil {
		return ExecResult{}, err
	}
	cPl, err := dw.Run(ctx, pd, bPl)
	if err != nil {
		return ExecResult{}, err
	}
	dPl, err := conv2.Run(ctx, p2, cPl)
	if err != nil {
		return ExecResult{}, err
	}
	outPl := dPl
	if residual {
		add := &kernels.Add{N: dPl.Bytes}
		outPl, err = add.Run(ctx, dPl, aPl)
		if err != nil {
			return ExecResult{}, err
		}
	}

	want := hs.goldenModule(0, mw, in, residual)
	return result(cfg.Name+"-unfused", plan.Plan{
		SegBytes:       segGran,
		InBytes:        cfg.H * cfg.W * cfg.Cin,
		OutBytes:       h2 * w2 * cfg.Cout,
		FootprintBytes: chain.FootprintBytes,
		Note:           "unfused chain (per-layer plans, Eq. 2 offsets)",
	}, dev, hs.verify(ctx, outPl, want)), nil
}
