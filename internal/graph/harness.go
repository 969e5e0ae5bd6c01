package graph

import (
	"math/rand"
	"slices"
	"sync"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
)

// harness is one executor run's host memory around the device: the drawn
// input, the golden reference's intermediates, its two ping-pong outputs
// (a split region's module chain alternates them) and the readback of the
// device's result. Runs take it from harnesses, the way they take devices
// from devicePools. Every buffer grows on first use to the largest unit
// it has served, so a warm verified run allocates none of them, and
// concurrent runs each hold their own.
type harness struct {
	in     []int8
	golden kernels.GoldenScratch
	want   [2][]int8
	got    []int8
}

var harnesses sync.Pool

// acquireHarness returns a pooled harness, or a new one when the pool is
// empty. Pair it with release once the run's verdict is taken.
func acquireHarness() *harness {
	if hs, ok := harnesses.Get().(*harness); ok {
		return hs
	}
	return new(harness)
}

// release returns hs to the pool. Nothing it holds may be read after.
func (hs *harness) release() { harnesses.Put(hs) }

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
