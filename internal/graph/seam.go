package graph

import (
	"fmt"
	"math/rand"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// RunSeam executes one streamed inter-module seam (the elided glue op the
// whole-network scheduler models at a non-connectable boundary) on a
// pooled simulated device reset to New's state under an explicit memory
// plan, with deterministic random weights and input, verifying the
// segment-aware kernel bit-exactly against the golden strided pointwise.
// The plan's gap may exceed the solved minimum (wider separations are
// strictly safer); the shadow-state checker still proves no live segment
// is clobbered.
func RunSeam(profile mcu.Profile, spec plan.SeamSpec, p plan.Plan, seed int64) (ExecResult, error) {
	if err := spec.Validate(); err != nil {
		return ExecResult{}, err
	}
	segsz := p.SegBytes
	poolBytes := (p.FootprintBytes - p.WorkspaceBytes + segsz - 1) / segsz * segsz
	if need := poolBytes + p.WorkspaceBytes; need > profile.RAMBytes() {
		return ExecResult{}, fmt.Errorf("graph: seam %s needs %d bytes (pool %d + workspace %d), device has %d",
			spec.Name, need, poolBytes, p.WorkspaceBytes, profile.RAMBytes())
	}
	flashNeed := spec.Cout*spec.Cin + 4*spec.Cout + 64
	dev := acquireDevice(profile, flashNeed)
	defer releaseDevice(dev)
	pool, err := seg.NewPool(dev, 0, poolBytes, segsz)
	if err != nil {
		return ExecResult{}, err
	}
	ctx := intrin.NewCtx(dev, pool)

	rng := rand.New(rand.NewSource(seed))
	w := make([]int8, spec.Cout*spec.Cin)
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	bias := make([]int32, spec.Cout)
	for i := range bias {
		bias[i] = int32(rng.Intn(1<<9) - 1<<8)
	}
	req := tensor.NewRequant(0.01, 0)
	kn := &kernels.Seam{Spec: spec, Req: req}
	if kn.Weight, err = kernels.PackInt8(dev, w); err != nil {
		return ExecResult{}, err
	}
	if kn.Bias, err = kernels.PackInt32(dev, bias); err != nil {
		return ExecResult{}, err
	}
	in := make([]int8, spec.InBytes())
	for i := range in {
		in[i] = int8(rng.Intn(255) - 127)
	}
	inPl := kernels.PlaceInput(ctx, spec.Name+".in", in, p.GapBytes())
	dev.ResetPeak()
	out, err := kn.Run(ctx, p, inPl)
	if err != nil {
		return ExecResult{}, err
	}
	got := kernels.Extract(ctx, out)
	want := kernels.GoldenPointwise(in, spec.H, spec.W, spec.Cin, spec.Cout, spec.Stride, w, bias, req)
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
		Name:       spec.Name,
		Plan:       p,
		Stats:      dev.Stats,
		PeakBytes:  dev.PeakBytes(),
		Violations: nViol,
		OutputOK:   ok,
	}, nil
}
