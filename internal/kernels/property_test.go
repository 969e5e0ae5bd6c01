package kernels

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
)

// TestConv2DRandomBattery fuzzes the convolution kernel across random
// geometry (window, stride, padding, channel widths) against the golden
// reference, asserting correctness, planner safety, and watermark bounds
// in one pass.
func TestConv2DRandomBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	channels := []int{4, 8, 12, 16}
	for iter := 0; iter < 40; iter++ {
		r := 1 + 2*rng.Intn(3) // 1, 3, 5
		sp := plan.Conv2DSpec{
			H: r + rng.Intn(8), W: r + rng.Intn(8),
			C: channels[rng.Intn(len(channels))], K: channels[rng.Intn(len(channels))],
			R: r, S: r,
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn((r + 1) / 2),
		}
		if sp.Validate() != nil {
			continue
		}
		kn := &Conv2D{Spec: sp, Req: req(0.02)}
		p := kn.Plan()
		c, _ := newRig(t, p, 0)
		in := randInt8(rng, sp.H*sp.W*sp.C)
		w := randInt8(rng, sp.K*sp.R*sp.S*sp.C)
		kn.Weight, _ = PackInt8(c.Dev, w)
		inPl := PlaceInput(c, "in", in, p.GapBytes())
		out, err := kn.Run(c, p, inPl)
		if err != nil {
			t.Fatalf("iter %d %+v: %v", iter, sp, err)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("iter %d %+v: %v", iter, sp, err)
		}
		got := Extract(c, out)
		want := GoldenConv2D(in, sp.H, sp.W, sp.C, sp.K, sp.R, sp.S, sp.Stride, sp.Pad, w, nil, req(0.02))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d %+v: out[%d] = %d, want %d", iter, sp, i, got[i], want[i])
			}
		}
		if peak := c.Dev.PeakBytes(); peak > p.FootprintBytes {
			t.Fatalf("iter %d %+v: peak %d > plan %d", iter, sp, peak, p.FootprintBytes)
		}
	}
}

// TestBottleneckRandomBattery fuzzes the fused module kernel across
// random channel/stride/window combinations.
func TestBottleneckRandomBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 25; iter++ {
		r := []int{3, 5}[rng.Intn(2)]
		cfg := plan.Bottleneck{
			Name: "fuzz",
			H:    r + 2 + rng.Intn(6), W: r + 2 + rng.Intn(6),
			Cin: 4 * (1 + rng.Intn(3)), Cmid: 8 * (1 + rng.Intn(3)), Cout: 4 * (1 + rng.Intn(3)),
			R: r, S: r,
			S1: 1 + rng.Intn(2), S2: 1 + rng.Intn(2), S3: 1 + rng.Intn(2),
		}
		if cfg.Validate() != nil {
			continue
		}
		c, got, want := runBottleneck(t, cfg, 0)
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("iter %d %+v: %v", iter, cfg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d %+v: size %d want %d", iter, cfg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d %+v: out[%d] = %d, want %d", iter, cfg, i, got[i], want[i])
			}
		}
	}
}

// TestFCRandomUnderAllocationAlwaysDetected: for any FC shape with a
// positive gap, shrinking the gap by one segment must be caught by the
// shadow state — the planner's bound is tight across the space, not just
// for one example.
func TestFCRandomUnderAllocationAlwaysDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tested := 0
	for iter := 0; iter < 60 && tested < 12; iter++ {
		m := 2 + rng.Intn(5)
		base := 4 * (1 + rng.Intn(3))
		k, n := base, base*(2+rng.Intn(2)) // N > K forces a positive gap
		p := plan.FC(m, k, n)
		if p.GapSegs == 0 {
			continue
		}
		tested++
		under := p
		under.GapSegs--
		c, _ := newRig(t, p, 2)
		w := randInt8(rng, n*k)
		wRef, _ := PackInt8(c.Dev, w)
		fc := &FC{M: m, K: k, N: n, Weight: wRef, Req: req(0.05)}
		inPl := PlaceInput(c, "in", randInt8(rng, m*k), p.GapBytes())
		if _, err := fc.Run(c, under, inPl); err != nil {
			t.Fatal(err)
		}
		if _, nv := c.Dev.Violations(); nv == 0 {
			t.Errorf("FC %dx%dx%d: gap-1 produced no violations (bound not tight)", m, k, n)
		}
	}
	if tested < 8 {
		t.Fatalf("only %d positive-gap shapes tested; generator too narrow", tested)
	}
}

// randInt8Full spans the complete int8 range [-128, 127] — the shared
// randInt8 helper (rng.Intn(255)-127) never produces −128, so the packed
// SXTB16/SMLAD path's most negative lane and the saturating add's lower
// clamp were previously unexercised.
func randInt8Full(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(256) - 128)
	}
	return out
}

// TestFCExtremeInt8Values drives the FC kernel with all-(−128) inputs and
// weights — the largest-magnitude accumulator the int8 format can produce
// (K·16384 per output) — plus full-range random batteries, against the
// golden reference.
func TestFCExtremeInt8Values(t *testing.T) {
	const m, k, n = 3, 16, 16
	p := plan.FC(m, k, n)
	c, _ := newRig(t, p, 0)
	in := make([]int8, m*k)
	w := make([]int8, n*k)
	for i := range in {
		in[i] = -128
	}
	for i := range w {
		w[i] = -128
	}
	wRef, _ := PackInt8(c.Dev, w)
	fc := &FC{M: m, K: k, N: n, Weight: wRef, Req: req(0.0001)}
	inPl := PlaceInput(c, "in", in, p.GapBytes())
	out, err := fc.Run(c, p, inPl)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	got := Extract(c, out)
	want := GoldenFC(in, m, k, n, w, nil, req(0.0001))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("all -128 FC out[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	rng := rand.New(rand.NewSource(103))
	for iter := 0; iter < 8; iter++ {
		c, _ := newRig(t, p, 0)
		in := randInt8Full(rng, m*k)
		w := randInt8Full(rng, n*k)
		wRef, _ := PackInt8(c.Dev, w)
		fc := &FC{M: m, K: k, N: n, Weight: wRef, Req: req(0.02)}
		inPl := PlaceInput(c, "in", in, p.GapBytes())
		out, err := fc.Run(c, p, inPl)
		if err != nil {
			t.Fatal(err)
		}
		got := Extract(c, out)
		want := GoldenFC(in, m, k, n, w, nil, req(0.02))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d full-range FC out[%d] = %d, want %d", iter, i, got[i], want[i])
			}
		}
	}
}

// TestBottleneckExtremeInt8Values runs the fused module (residual and
// non-residual) with full-range weights and inputs including −128; the
// residual case exercises the saturating add's −128 clamp against
// GoldenAddSat.
func TestBottleneckExtremeInt8Values(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	cases := []plan.Bottleneck{
		{Name: "x-res", H: 8, W: 8, Cin: 8, Cmid: 16, Cout: 8, R: 3, S: 3, S1: 1, S2: 1, S3: 1},
		{Name: "x-exp", H: 10, W: 10, Cin: 4, Cmid: 8, Cout: 8, R: 3, S: 3, S1: 1, S2: 2, S3: 1},
	}
	for _, cfg := range cases {
		p := plan.PlanBottleneckModule(cfg)
		c, capBytes := newRig(t, p, 2)
		wt := BottleneckWeights{
			W1:   randInt8Full(rng, cfg.Cmid*cfg.Cin),
			B1:   randInt32(rng, cfg.Cmid, 1<<8),
			Wd:   randInt8Full(rng, cfg.R*cfg.S*cfg.Cmid),
			Bd:   randInt32(rng, cfg.Cmid, 1<<8),
			W2:   randInt8Full(rng, cfg.Cout*cfg.Cmid),
			B2:   randInt32(rng, cfg.Cout, 1<<8),
			Req1: req(0.02), ReqD: req(0.1), Req2: req(0.08),
		}
		kn, err := NewBottleneck(c.Dev, cfg, wt)
		if err != nil {
			t.Fatal(err)
		}
		in := randInt8Full(rng, cfg.H*cfg.W*cfg.Cin)
		in[0] = -128 // force the extreme into the first loaded vector
		inPl := PlaceInput(c, "A", in, p.GapBytes())
		out, err := kn.Run(c, p, inPl, capBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		got := Extract(c, out)
		want := GoldenBottleneck(in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
			cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, cfg.Residual())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", cfg.Name, i, got[i], want[i])
			}
		}
	}
}

// TestGoldenAddSatClampsBothRails pins the golden saturating add at both
// int8 rails, including the −128 lower clamp.
func TestGoldenAddSatClampsBothRails(t *testing.T) {
	a := []int8{-128, -128, 127, 100, -100}
	b := []int8{-128, -1, 127, 100, -100}
	want := []int8{-128, -128, 127, 127, -128}
	got := GoldenAddSat(a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addsat[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestDotVecHandlesMinInt8 proves the packed SXTB16/SMLAD simulation is
// exact on the asymmetric extreme: (−128)·(−128) pairs in every lane.
func TestDotVecHandlesMinInt8(t *testing.T) {
	dev := mcu.New(mcu.CortexM4(), 0)
	pool, err := seg.NewPool(dev, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := intrin.NewCtx(dev, pool)
	n := 9 // odd length covers the scalar tail too
	a := make([]int8, n)
	b := make([]int8, n)
	for i := range a {
		a[i], b[i] = -128, -128
	}
	var acc int32
	c.DotVec(a, b, &acc)
	if want := int32(n) * 16384; acc != want {
		t.Errorf("dot of all -128 = %d, want %d", acc, want)
	}
}
