package kernels

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// newRig builds a device + pool sized for the given plan, with the pool
// capacity rounded up to whole segments.
func newRig(t *testing.T, p plan.Plan, extraSegs int) (*intrin.Ctx, int) {
	t.Helper()
	poolBytes := p.FootprintBytes - p.WorkspaceBytes
	segsz := p.SegBytes
	capBytes := ((poolBytes+segsz-1)/segsz + extraSegs) * segsz
	dev := mcu.New(mcu.CortexM4(), 1<<22)
	if capBytes+p.WorkspaceBytes > dev.RAMSize() {
		t.Fatalf("test rig too large: %d bytes", capBytes)
	}
	pool, err := seg.NewPool(dev, 0, capBytes, segsz)
	if err != nil {
		t.Fatal(err)
	}
	return intrin.NewCtx(dev, pool), capBytes
}

func randInt8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

func randInt32(rng *rand.Rand, n, lim int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(2*lim) - lim)
	}
	return out
}

func req(scale float64) tensor.Requant { return tensor.NewRequant(scale, 0) }

func TestFCMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ m, k, n int }{
		{1, 8, 8}, {3, 8, 16}, {4, 16, 8}, {5, 24, 24}, {2, 32, 8}, {7, 8, 32},
	}
	for _, cse := range cases {
		p := plan.FC(cse.m, cse.k, cse.n)
		c, _ := newRig(t, p, 0)
		in := randInt8(rng, cse.m*cse.k)
		w := randInt8(rng, cse.n*cse.k)
		bias := randInt32(rng, cse.n, 1<<10)
		r := req(0.03)

		wRef, err := PackInt8(c.Dev, w)
		if err != nil {
			t.Fatal(err)
		}
		bRef, err := PackInt32(c.Dev, bias)
		if err != nil {
			t.Fatal(err)
		}
		fc := &FC{M: cse.m, K: cse.k, N: cse.n, Weight: wRef, Bias: bRef, Req: r}
		inPl := PlaceInput(c, "in", in, p.GapBytes())
		out, err := fc.Run(c, p, inPl)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("FC %dx%dx%d: %v", cse.m, cse.k, cse.n, err)
		}
		got := Extract(c, out)
		want := GoldenFC(in, cse.m, cse.k, cse.n, w, bias, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FC %dx%dx%d: output[%d] = %d, want %d", cse.m, cse.k, cse.n, i, got[i], want[i])
			}
		}
		if peak := c.Dev.PeakBytes(); peak > p.FootprintBytes {
			t.Errorf("FC %dx%dx%d: peak %d exceeds planned footprint %d", cse.m, cse.k, cse.n, peak, p.FootprintBytes)
		}
	}
}

func TestFCOutputBeforeInputPointer(t *testing.T) {
	// Output must start exactly GapBytes before the input pointer (§4).
	p := plan.FC(3, 8, 16)
	c, _ := newRig(t, p, 0)
	rng := rand.New(rand.NewSource(1))
	w := randInt8(rng, 16*8)
	wRef, _ := PackInt8(c.Dev, w)
	fc := &FC{M: 3, K: 8, N: 16, Weight: wRef, Req: req(0.05)}
	inPl := PlaceInput(c, "in", randInt8(rng, 24), p.GapBytes())
	out, err := fc.Run(c, p, inPl)
	if err != nil {
		t.Fatal(err)
	}
	if out.Off != inPl.Off-p.GapBytes() {
		t.Errorf("out off = %d, want %d", out.Off, inPl.Off-p.GapBytes())
	}
}

func TestFCWrapsCircularPool(t *testing.T) {
	// Place the input at offset 0: the output pointer becomes negative and
	// must wrap to the end of the circular pool, per the paper's
	// "addr % (MemCap/Seg)" reset.
	p := plan.FC(3, 8, 16)
	c, capBytes := newRig(t, p, 2)
	rng := rand.New(rand.NewSource(2))
	in := randInt8(rng, 24)
	w := randInt8(rng, 16*8)
	wRef, _ := PackInt8(c.Dev, w)
	fc := &FC{M: 3, K: 8, N: 16, Weight: wRef, Req: req(0.05)}
	inPl := PlaceInput(c, "in", in, 0)
	out, err := fc.Run(c, p, inPl)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatalf("wrapped FC: %v", err)
	}
	if out.Off >= 0 {
		t.Fatalf("test premise broken: out.Off = %d, want negative", out.Off)
	}
	got := Extract(c, out)
	want := GoldenFC(in, 3, 8, 16, w, nil, req(0.05))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrapped output[%d] = %d, want %d (cap %d)", i, got[i], want[i], capBytes)
		}
	}
}

func TestFCUnderAllocatedGapIsDetected(t *testing.T) {
	// Failure injection: shrink the solved gap by one segment; the output
	// must clobber still-live input and the shadow state must catch it.
	// This proves the Eq. (1) bound is tight.
	p := plan.FC(4, 8, 16) // gap = M segments > 0
	if p.GapSegs == 0 {
		t.Fatal("test premise: gap must be positive")
	}
	under := p
	under.GapSegs--
	c, _ := newRig(t, p, 2)
	rng := rand.New(rand.NewSource(3))
	w := randInt8(rng, 16*8)
	wRef, _ := PackInt8(c.Dev, w)
	fc := &FC{M: 4, K: 8, N: 16, Weight: wRef, Req: req(0.05)}
	inPl := PlaceInput(c, "in", randInt8(rng, 32), p.GapBytes())
	if _, err := fc.Run(c, under, inPl); err != nil {
		t.Fatal(err)
	}
	if _, n := c.Dev.Violations(); n == 0 {
		t.Error("under-allocated gap produced no violations; planner bound is not tight")
	}
}

func TestPointwiseMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ h, w, c, k int }{
		{6, 6, 8, 8}, {5, 7, 16, 8}, {4, 4, 8, 16}, {8, 3, 16, 16},
	}
	for _, cse := range cases {
		pw := &Pointwise{H: cse.h, W: cse.w, C: cse.c, K: cse.k, Req: req(0.02)}
		p := pw.Plan()
		c, _ := newRig(t, p, 0)
		in := randInt8(rng, cse.h*cse.w*cse.c)
		w := randInt8(rng, cse.k*cse.c)
		bias := randInt32(rng, cse.k, 1<<9)
		pw.Weight, _ = PackInt8(c.Dev, w)
		pw.Bias, _ = PackInt32(c.Dev, bias)
		inPl := PlaceInput(c, "in", in, p.GapBytes())
		out, err := pw.Run(c, p, inPl)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("pointwise %+v: %v", cse, err)
		}
		got := Extract(c, out)
		want := GoldenPointwise(in, cse.h, cse.w, cse.c, cse.k, 1, w, bias, req(0.02))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pointwise %+v: out[%d] = %d, want %d", cse, i, got[i], want[i])
			}
		}
	}
}

func TestConv2DMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := []plan.Conv2DSpec{
		{H: 6, W: 6, C: 4, K: 4, R: 3, S: 3, Stride: 1, Pad: 1},
		{H: 8, W: 8, C: 8, K: 4, R: 3, S: 3, Stride: 2, Pad: 1},
		{H: 7, W: 5, C: 4, K: 8, R: 1, S: 1, Stride: 1, Pad: 0},
		{H: 6, W: 6, C: 4, K: 4, R: 5, S: 5, Stride: 1, Pad: 2},
		{H: 9, W: 9, C: 8, K: 8, R: 3, S: 3, Stride: 3, Pad: 0},
	}
	for _, sp := range specs {
		kn := &Conv2D{Spec: sp, Req: req(0.01)}
		p := kn.Plan()
		c, _ := newRig(t, p, 0)
		in := randInt8(rng, sp.H*sp.W*sp.C)
		w := randInt8(rng, sp.K*sp.R*sp.S*sp.C)
		bias := randInt32(rng, sp.K, 1<<9)
		kn.Weight, _ = PackInt8(c.Dev, w)
		kn.Bias, _ = PackInt32(c.Dev, bias)
		inPl := PlaceInput(c, "in", in, p.GapBytes())
		out, err := kn.Run(c, p, inPl)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("conv %+v: %v", sp, err)
		}
		got := Extract(c, out)
		want := GoldenConv2D(in, sp.H, sp.W, sp.C, sp.K, sp.R, sp.S, sp.Stride, sp.Pad, w, bias, req(0.01))
		if len(got) != len(want) {
			t.Fatalf("conv %+v: output size %d, want %d", sp, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("conv %+v: out[%d] = %d, want %d", sp, i, got[i], want[i])
			}
		}
		if peak := c.Dev.PeakBytes(); peak > p.FootprintBytes {
			t.Errorf("conv %+v: peak %d exceeds footprint %d", sp, peak, p.FootprintBytes)
		}
	}
}

func TestDepthwiseMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct{ h, w, c, r, s, stride, pad int }{
		{6, 6, 8, 3, 3, 1, 1},
		{8, 8, 4, 3, 3, 2, 1},
		{6, 6, 8, 7, 7, 1, 3},
		{5, 9, 16, 3, 3, 1, 1},
	}
	for _, cse := range cases {
		kn := &Depthwise{H: cse.h, W: cse.w, C: cse.c, R: cse.r, S: cse.s,
			Stride: cse.stride, Pad: cse.pad, Req: req(0.04)}
		p := kn.Plan()
		c, _ := newRig(t, p, 0)
		in := randInt8(rng, cse.h*cse.w*cse.c)
		w := randInt8(rng, cse.r*cse.s*cse.c)
		bias := randInt32(rng, cse.c, 1<<9)
		kn.Weight, _ = PackInt8(c.Dev, w)
		kn.Bias, _ = PackInt32(c.Dev, bias)
		inPl := PlaceInput(c, "in", in, p.GapBytes())
		out, err := kn.Run(c, p, inPl)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("dw %+v: %v", cse, err)
		}
		got := Extract(c, out)
		want := GoldenDepthwise(in, cse.h, cse.w, cse.c, cse.r, cse.s, cse.stride, cse.pad, w, bias, req(0.04))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dw %+v: out[%d] = %d, want %d", cse, i, got[i], want[i])
			}
		}
	}
}

func TestAddMatchesGoldenAndIsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	pool, err := seg.NewPool(dev, 0, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := intrin.NewCtx(dev, pool)
	n := 200
	a := randInt8(rng, n)
	b := randInt8(rng, n)
	aPl := PlaceInput(c, "a", a, 0)
	bPl := PlaceInput(c, "b", b, 512)
	add := &Add{N: n}
	out, err := add.Run(c, aPl, bPl)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if out.Off != aPl.Off {
		t.Errorf("add not in place: out at %d, a at %d", out.Off, aPl.Off)
	}
	got := Extract(c, out)
	want := GoldenAddSat(a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("add out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func randomWeights(rng *rand.Rand, cfg plan.Bottleneck) BottleneckWeights {
	return BottleneckWeights{
		W1:   randInt8(rng, cfg.Cmid*cfg.Cin),
		B1:   randInt32(rng, cfg.Cmid, 1<<8),
		Wd:   randInt8(rng, cfg.R*cfg.S*cfg.Cmid),
		Bd:   randInt32(rng, cfg.Cmid, 1<<8),
		W2:   randInt8(rng, cfg.Cout*cfg.Cmid),
		B2:   randInt32(rng, cfg.Cout, 1<<8),
		Req1: req(0.01), ReqD: req(0.05), Req2: req(0.01),
	}
}

func runBottleneck(t *testing.T, cfg plan.Bottleneck, gapDeltaSegs int) (*intrin.Ctx, []int8, []int8) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	p := plan.PlanBottleneckModule(cfg)
	p.GapSegs += gapDeltaSegs
	c, capBytes := newRig(t, p, 2)
	wsBase := capBytes // workspace right after the pool
	wt := randomWeights(rng, cfg)
	kn, err := NewBottleneck(c.Dev, cfg, wt)
	if err != nil {
		t.Fatal(err)
	}
	in := randInt8(rng, cfg.H*cfg.W*cfg.Cin)
	inPl := PlaceInput(c, "A", in, p.GapBytes())
	out, err := kn.Run(c, p, inPl, wsBase)
	if err != nil {
		t.Fatal(err)
	}
	got := Extract(c, out)
	want := GoldenBottleneck(in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
		cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, cfg.Residual())
	return c, got, want
}

func TestBottleneckResidualMatchesGolden(t *testing.T) {
	cfg := plan.Bottleneck{Name: "t-res", H: 8, W: 8, Cin: 8, Cmid: 16, Cout: 8,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	if !cfg.Residual() {
		t.Fatal("premise: residual")
	}
	c, got, want := runBottleneck(t, cfg, 0)
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("residual bottleneck out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBottleneckStrideVariantsMatchGolden(t *testing.T) {
	cases := []plan.Bottleneck{
		{Name: "t-s1", H: 8, W: 8, Cin: 4, Cmid: 8, Cout: 8, R: 3, S: 3, S1: 2, S2: 1, S3: 1},
		{Name: "t-s2", H: 8, W: 8, Cin: 8, Cmid: 16, Cout: 4, R: 3, S: 3, S1: 1, S2: 2, S3: 1},
		{Name: "t-s3", H: 8, W: 8, Cin: 8, Cmid: 8, Cout: 4, R: 3, S: 3, S1: 1, S2: 1, S3: 2},
		{Name: "t-7x7", H: 6, W: 6, Cin: 4, Cmid: 8, Cout: 8, R: 7, S: 7, S1: 1, S2: 1, S3: 1},
		{Name: "t-odd", H: 7, W: 9, Cin: 4, Cmid: 8, Cout: 6, R: 3, S: 3, S1: 1, S2: 2, S3: 1},
	}
	for _, cfg := range cases {
		c, got, want := runBottleneck(t, cfg, 0)
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: size %d, want %d", cfg.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", cfg.Name, i, got[i], want[i])
			}
		}
	}
}

func TestBottleneckPeakWithinPlan(t *testing.T) {
	cfg := plan.Bottleneck{Name: "t-peak", H: 10, W: 10, Cin: 8, Cmid: 16, Cout: 4,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	p := plan.PlanBottleneckModule(cfg)
	c, _, _ := runBottleneck(t, cfg, 0)
	if peak := c.Dev.PeakBytes(); peak > p.FootprintBytes {
		t.Errorf("peak %d exceeds planned footprint %d", peak, p.FootprintBytes)
	}
}

func TestBottleneckUnderAllocatedGapIsDetected(t *testing.T) {
	// Shrink the solved gap sharply: output writes must clobber live input.
	cfg := plan.Bottleneck{Name: "t-under", H: 10, W: 10, Cin: 4, Cmid: 8, Cout: 8,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1} // non-residual (channel expansion)
	p := plan.PlanBottleneckModule(cfg)
	if p.GapSegs < 2 {
		t.Fatalf("premise: gap %d too small to shrink", p.GapSegs)
	}
	c, _, _ := runBottleneck(t, cfg, -p.GapSegs)
	if _, n := c.Dev.Violations(); n == 0 {
		t.Error("under-allocated bottleneck produced no violations")
	}
}

func TestBottleneckWeightValidation(t *testing.T) {
	cfg := plan.Bottleneck{Name: "t-bad", H: 4, W: 4, Cin: 4, Cmid: 8, Cout: 4,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	dev := mcu.New(mcu.CortexM4(), 1<<20)
	_, err := NewBottleneck(dev, cfg, BottleneckWeights{})
	if err == nil {
		t.Error("empty weights accepted")
	}
}

func TestPlaceExtractRoundTrip(t *testing.T) {
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	pool, _ := seg.NewPool(dev, 0, 256, 16)
	c := intrin.NewCtx(dev, pool)
	data := []int8{1, -2, 3, -4, 5}
	pl := PlaceInput(c, "x", data, 48)
	got := Extract(c, pl)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("round trip[%d] = %d, want %d", i, got[i], data[i])
		}
	}
	FreeAll(c, pl)
	if dev.LiveBytes() != 0 {
		t.Errorf("live bytes after FreeAll = %d", dev.LiveBytes())
	}
}

func TestBottleneckComputeNearIdealMACs(t *testing.T) {
	// The row-shifting window keeps the fused kernel's multiply count close
	// to the ideal (each B pixel computed ~once); this is what buys the
	// paper's Table-3 latency parity with TinyEngine.
	cfg := plan.Bottleneck{Name: "t-macs", H: 12, W: 12, Cin: 8, Cmid: 16, Cout: 8,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	c, _, _ := runBottleneck(t, cfg, 0)
	ideal := float64(cfg.MACs())
	conv1 := float64(12 * 12 * 8 * 16)
	// The R·S-segment workspace forces each B pixel to be recomputed once
	// per output row it serves (factor R on the expansion conv, §5.2);
	// everything else must be computed exactly once.
	bound := ideal + (float64(cfg.R)-1+0.6)*conv1 // +0.6 for window fringe
	got := float64(c.Dev.Stats.MACs)
	if got > bound {
		t.Errorf("fused MACs %.0f exceed bound %.0f (ideal %.0f)", got, bound, ideal)
	}
	if got < ideal {
		t.Errorf("fused MACs %.0f below ideal %.0f (missing work?)", got, ideal)
	}
}

func TestAvgPoolMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cse := range []struct{ h, w, c int }{{4, 4, 8}, {7, 7, 16}, {3, 5, 24}} {
		ap := &AvgPool{H: cse.h, W: cse.w, C: cse.c}
		p := ap.Plan()
		c, _ := newRig(t, p, 1)
		in := randInt8(rng, cse.h*cse.w*cse.c)
		inPl := PlaceInput(c, "in", in, p.GapBytes())
		out, err := ap.Run(c, p, inPl)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("avgpool %+v: %v", cse, err)
		}
		got := Extract(c, out)
		want := GoldenAvgPool(in, cse.h, cse.w, cse.c)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("avgpool %+v: out[%d] = %d, want %d", cse, i, got[i], want[i])
			}
		}
		if c.Dev.LiveBytes() != cse.c {
			t.Errorf("avgpool live bytes = %d, want %d (only the pooled vector)", c.Dev.LiveBytes(), cse.c)
		}
	}
}

func TestAvgPoolThenFCHead(t *testing.T) {
	// The MCUNet classification head: global avgpool into a tiny FC.
	rng := rand.New(rand.NewSource(33))
	const h, w, c, classes = 5, 5, 16, 8
	ap := &AvgPool{H: h, W: w, C: c}
	pAp := ap.Plan()
	pFC := plan.FC(1, c, classes)
	chain, err := plan.PlanChain([]plan.Plan{pAp, pFC})
	if err != nil {
		t.Fatal(err)
	}
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	capBytes := (chain.FootprintBytes + 7) / 8 * 8
	pool, err := seg.NewPool(dev, 0, capBytes, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := intrin.NewCtx(dev, pool)
	in := randInt8(rng, h*w*c)
	wts := randInt8(rng, classes*c)
	wRef, _ := PackInt8(dev, wts)
	fc := &FC{M: 1, K: c, N: classes, Weight: wRef, Req: req(0.05)}
	inPl := PlaceInput(ctx, "act", in, chain.Offsets[0])
	pooled, err := ap.Run(ctx, pAp, inPl)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := fc.Run(ctx, pFC, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	got := Extract(ctx, logits)
	want := GoldenFC(GoldenAvgPool(in, h, w, c), 1, c, classes, wts, nil, req(0.05))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("head out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
