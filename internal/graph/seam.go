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

// ExecSeam executes one streamed inter-module seam (the elided glue op the
// whole-network scheduler models at a non-connectable boundary) with
// weights sw on a pooled simulated device reset to New's state under an
// explicit memory plan. It loads sw's prebuilt Flash image, draws the
// input from rng, and verifies the segment-aware kernel bit-exactly
// against the golden strided pointwise. The plan's gap may exceed the
// solved minimum (wider separations are strictly safer); the shadow-state
// checker still proves no live segment is clobbered.
func ExecSeam(profile mcu.Profile, sw *SeamWeights, p plan.Plan, rng *rand.Rand) (ExecResult, error) {
	spec := sw.Spec
	poolBytes := p.PoolBytes()
	if need := poolBytes + p.WorkspaceBytes; need > profile.RAMBytes() {
		return ExecResult{}, fmt.Errorf("graph: seam %s needs %d bytes (pool %d + workspace %d), device has %d",
			spec.Name, need, poolBytes, p.WorkspaceBytes, profile.RAMBytes())
	}
	dev := acquireDevice(profile, sw.Image.Bytes()+flashSlack)
	defer releaseDevice(dev)
	pool, err := seg.NewPool(dev, 0, poolBytes, p.SegBytes)
	if err != nil {
		return ExecResult{}, err
	}
	ctx := intrin.NewCtx(dev, pool)
	base, err := sw.Image.Load(dev)
	if err != nil {
		return ExecResult{}, err
	}
	kn := &kernels.Seam{Spec: spec, Req: sw.Req, Weight: sw.Image.Part(base, 0), Bias: sw.Image.Part(base, 1)}
	hs := acquireHarness()
	defer hs.release()
	in := hs.draw(rng, spec.InBytes())
	inPl := kernels.PlaceInput(ctx, spec.Name+".in", in, p.GapBytes())
	dev.ResetPeak()
	out, err := kn.Run(ctx, p, inPl)
	if err != nil {
		return ExecResult{}, err
	}
	want := hs.golden.Pointwise(hs.want[0], in, spec.H, spec.W, spec.Cin, spec.Cout, spec.Stride,
		sw.W, sw.Bias, sw.Req)
	hs.want[0] = want
	return result(spec.Name, p, dev, hs.verify(ctx, out, want)), nil
}
