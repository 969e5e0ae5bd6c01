package graph

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/vmcu-project/vmcu/internal/freelist"
	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
)

// unit is one executable unit as run executes it. Each executor
// (ExecModule, ExecModuleUnfused, ExecSeam, ExecSplitRegion) states the
// unit's geometry here and its own code in a unitCode; run owns the rest:
// the RAM check, the pooled device, pool and context, the input draw and
// placement, and the bit-exact verdict.
type unit struct {
	kind, name         string    // label the result and the RAM check's error
	plan               plan.Plan // the memory plan the result reports
	poolBytes, wsBytes int       // the unit's own pool, and workspace after it
	flashBytes         int       // device Flash for the unit's images
	inBytes, inOff     int       // the drawn input's length and pool offset
	inName             string    // its tensor name; "" if the step streams it
}

// unitCode is a unit's own code, kept apart from unit: unit's strings
// reach the result, and escape analysis would move closures stored with
// them to the heap.
type unitCode struct {
	load func(dev *mcu.Device) error // loads the Flash images and kernels
	// step runs the loaded unit on ctx, with its workspace at RAM address
	// wsBase, from the drawn input in: placed at inPl, or streamed into
	// the pool by the step itself (a split region). It returns the output
	// placement.
	step   func(ctx *intrin.Ctx, in []int8, inPl kernels.Placement, wsBase int) (kernels.Placement, error)
	golden func(hs *harness, in []int8) []int8 // the reference output for in
}

// poolAt places a unit's circular pool at RAM [base, base+bytes), its
// workspace right after. The zero value is the unit's own pool at 0.
type poolAt struct{ base, bytes int }

// run executes u's code c on a pooled device reset to New's state, with
// its pool at at and its input drawn from rng, and verifies its output
// against c.golden bit for bit.
func (u *unit) run(profile mcu.Profile, rng *rand.Rand, at poolAt, c *unitCode) (ExecResult, error) {
	if at.bytes == 0 {
		at.bytes = u.poolBytes
	}
	wsBase := at.base + at.bytes
	if wsBase+u.wsBytes > profile.RAMBytes() {
		// The segment-rounded pool plus workspace: what is checked.
		return ExecResult{}, fmt.Errorf("graph: %s %s needs %d bytes (pool %d + workspace %d), device has %d",
			u.kind, u.name, at.bytes+u.wsBytes, at.bytes, u.wsBytes, profile.RAMBytes())
	}
	dev := acquireDevice(profile, u.flashBytes)
	defer releaseDevice(dev)
	pool, err := seg.NewPool(dev, at.base, at.bytes)
	if err != nil {
		return ExecResult{}, err
	}
	if err := c.load(dev); err != nil {
		return ExecResult{}, err
	}
	hs := acquireHarness()
	defer hs.release()
	hs.ctx = intrin.Ctx{Dev: dev, Pool: pool}
	in := hs.draw(rng, u.inBytes)
	var inPl kernels.Placement
	if u.inName != "" {
		inPl = kernels.PlaceInput(&hs.ctx, u.inName, in, u.inOff)
	}
	dev.ResetPeak()
	out, err := c.step(&hs.ctx, in, inPl, wsBase)
	if err != nil {
		return ExecResult{}, err
	}
	ok := hs.verify(&hs.ctx, out, c.golden(hs, in))
	_, nViol := dev.Violations()
	return ExecResult{Name: u.name, Plan: u.plan, Stats: dev.Stats, PeakBytes: dev.PeakBytes(),
		Violations: nViol, OutputOK: ok}, nil
}

// harness is one unit run's host memory: the kernel context, the drawn
// input, the golden reference's intermediates and two ping-pong outputs
// (a split region's module chain alternates them), and the readback. Runs
// take it from harnesses as they take devices from devicePools; each
// buffer grows to the largest unit it has served, so a warm run allocates
// none. The context lives here because a unit's code takes it through a
// function value, which would move a local context to the heap.
type harness struct {
	ctx    intrin.Ctx
	in     []int8
	golden kernels.GoldenScratch
	want   [2][]int8
	got    []int8
}

var harnesses freelist.List[*harness]

// acquireHarness returns a pooled harness, or a new one when the pool is
// empty. Pair it with release once the run's verdict is taken.
func acquireHarness() *harness {
	if hs, ok := harnesses.Get(); ok {
		return hs
	}
	return new(harness)
}

// release returns hs to the pool. Nothing it holds may be read after.
func (hs *harness) release() {
	hs.ctx = intrin.Ctx{}
	harnesses.Put(hs)
}

// draw returns n input values drawn from rng exactly as drawInt8 draws
// them, in the harness's input buffer.
func (hs *harness) draw(rng *rand.Rand, n int) []int8 {
	hs.in = fillInt8(rng, grow(hs.in, n))
	return hs.in
}

// goldenModule computes mw's golden output for in into want[slot].
func (hs *harness) goldenModule(slot int, mw *ModuleWeights, in []int8, residual bool) []int8 {
	cfg := mw.Cfg
	hs.want[slot] = hs.golden.Bottleneck(hs.want[slot], in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
		cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, mw.BottleneckWeights, residual)
	return hs.want[slot]
}

// verify reads placement pl back from the pool, without traffic or tag
// checks, and reports whether it equals want bit for bit.
func (hs *harness) verify(ctx *intrin.Ctx, pl kernels.Placement, want []int8) bool {
	hs.got = grow(hs.got, pl.Bytes)
	ctx.Pool.ReadRawBytes(pl.Off, intrin.AsBytes(hs.got))
	return slices.Equal(hs.got, want)
}

// grow reslices s to length n, reallocating only when it is too short.
func grow(s []int8, n int) []int8 { return slices.Grow(s[:0], n)[:n] }
