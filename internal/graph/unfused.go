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

// RunModuleUnfused executes the layers of a pointwise-stride-1 inverted
// bottleneck separately, on a pooled device reset to New's state — each
// with its own §4 single-layer plan — chained through one circular pool
// with the offsets solved by plan.PlanChain (the Eq. 2 difference system).
// The intermediate expansion tensor materializes in full, which is exactly
// what the fused kernel avoids; this is the fusion ablation, and — because
// it computes each expansion pixel once instead of once per depthwise
// window row — the latency end of the scheduler's policy tradeoff. A
// residual module pins its input disjoint above the chain (conv1 keeps it)
// and finishes with the elementwise add writing E over D's storage.
func RunModuleUnfused(profile mcu.Profile, cfg plan.Bottleneck, seed int64) (ExecResult, error) {
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

	rng := rand.New(rand.NewSource(seed))
	wt := randomBottleneckWeights(rng, cfg)
	dev := acquireDevice(profile, bottleneckFlashBytes(cfg))
	defer releaseDevice(dev)
	const segGran = 4 // the kernels address the pool byte-wise
	capBytes := (chain.FootprintBytes + segGran - 1) / segGran * segGran
	pool, err := seg.NewPool(dev, 0, capBytes, segGran)
	if err != nil {
		return ExecResult{}, err
	}
	ctx := intrin.NewCtx(dev, pool)

	conv1 := &kernels.Pointwise{H: cfg.H, W: cfg.W, C: cfg.Cin, K: cfg.Cmid, Req: wt.Req1,
		KeepInput: residual}
	if conv1.Weight, err = kernels.PackInt8(dev, wt.W1); err != nil {
		return ExecResult{}, err
	}
	if conv1.Bias, err = kernels.PackInt32(dev, wt.B1); err != nil {
		return ExecResult{}, err
	}
	dw := &kernels.Depthwise{H: h1, W: w1, C: cfg.Cmid, R: cfg.R, S: cfg.S,
		Stride: cfg.S2, Pad: pad, Req: wt.ReqD}
	if dw.Weight, err = kernels.PackInt8(dev, wt.Wd); err != nil {
		return ExecResult{}, err
	}
	if dw.Bias, err = kernels.PackInt32(dev, wt.Bd); err != nil {
		return ExecResult{}, err
	}
	conv2 := &kernels.Pointwise{H: h2, W: w2, C: cfg.Cmid, K: cfg.Cout, Req: wt.Req2}
	if conv2.Weight, err = kernels.PackInt8(dev, wt.W2); err != nil {
		return ExecResult{}, err
	}
	if conv2.Bias, err = kernels.PackInt32(dev, wt.B2); err != nil {
		return ExecResult{}, err
	}

	in := make([]int8, cfg.H*cfg.W*cfg.Cin)
	for i := range in {
		in[i] = int8(rng.Intn(255) - 127)
	}
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

	got := kernels.Extract(ctx, outPl)
	want := kernels.GoldenBottleneck(in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
		cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, residual)
	ok := len(got) == len(want)
	if ok {
		for i := range want {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	_, nViol := dev.Violations()
	return ExecResult{
		Name: cfg.Name + "-unfused",
		Plan: plan.Plan{
			SegBytes:       segGran,
			InBytes:        cfg.H * cfg.W * cfg.Cin,
			OutBytes:       h2 * w2 * cfg.Cout,
			FootprintBytes: chain.FootprintBytes,
			Note:           "unfused chain (per-layer plans, Eq. 2 offsets)",
		},
		Stats:      dev.Stats,
		PeakBytes:  dev.PeakBytes(),
		Violations: nViol,
		OutputOK:   ok,
	}, nil
}
