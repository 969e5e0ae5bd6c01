//go:build !race

// The race detector makes sync.Pool drop items at random, so under -race
// a run rebuilds its pooled scratch more often than these bounds allow.

package kernels

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
)

// TestBottleneckAllocationsPerRun pins the fused kernel's host
// allocations to a fixed set-up per run. Accumulators are reset per pixel,
// workspace pixels cross the device's byte API as views of the kernel's
// int8 buffers, and every buffer and the conv1 memo come from a pooled
// scratch, so nothing in the pixel loops allocates and the bound holds at
// any plane size. A warm run allocates once. A run that builds its
// scratch afresh, as one does after a GC has emptied the pool, allocates
// 20 times; the limit is an average over four runs, so it holds with up
// to three such runs among them.
func TestBottleneckAllocationsPerRun(t *testing.T) {
	const limit = 16
	for _, hw := range []int{12, 24} {
		cfg := plan.Bottleneck{Name: "t-alloc", H: hw, W: hw, Cin: 8, Cmid: 16, Cout: 4,
			R: 3, S: 3, S1: 1, S2: 1, S3: 1}
		rng := rand.New(rand.NewSource(31))
		p := plan.PlanBottleneckModule(cfg)
		c, capBytes := newRig(t, p, 2)
		kn, err := NewBottleneck(c.Dev, cfg, randomWeights(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		in := randInt8(rng, cfg.H*cfg.W*cfg.Cin)
		allocs := testing.AllocsPerRun(4, func() {
			out, err := kn.Run(c, p, PlaceInput(c, "A", in, p.GapBytes()), capBytes)
			if err != nil {
				t.Fatal(err)
			}
			FreeAll(c, out)
		})
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatal(err)
		}
		if allocs > limit {
			_, _, _, _, h3, w3 := cfg.Grids()
			t.Errorf("%dx%d: bottleneck run allocates %.0f times, want at most %d (%d output pixels)",
				hw, hw, allocs, limit, h3*w3)
		}
	}
}

// TestPixelViewsAllocateNothing pins the zero-copy int8↔byte crossings of
// the verified path: placing an input tensor, and a tagged pixel load and
// store, pass the kernel's int8 slices to the device as byte views and
// allocate nothing. A staging copy per call would allocate whenever the
// pixel outgrew the last one.
func TestPixelViewsAllocateNothing(t *testing.T) {
	dev := mcu.New(mcu.CortexM4(), 64)
	pool, err := seg.NewPool(dev, 0, 8192, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := intrin.NewCtx(dev, pool)
	rng := rand.New(rand.NewSource(37))
	data := randInt8(rng, 4096)
	pix := make([]int8, 80)
	id := c.Dev.NewTensorID("x")
	for _, cse := range []struct {
		name string
		f    func()
	}{
		{"PlaceInput", func() {
			dev.Reset(dev.Profile, 64) // keeps tensor IDs from growing the name map
			FreeAll(c, PlaceInput(c, "A", data, 0))
		}},
		{"RAMStore", func() { c.RAMStore(8, pix, id, 0) }},
		{"RAMLoad", func() { c.RAMLoad(pix, 8, id, 0) }},
	} {
		if allocs := testing.AllocsPerRun(50, cse.f); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", cse.name, allocs)
		}
	}
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
}
