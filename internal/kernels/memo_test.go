package kernels_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// fusedRig is one fused module with seeded weights and input on a fresh
// Cortex-M7 device: a circular pool of poolBytes in segSize segments at
// address 0, and the module workspace right after it.
type fusedRig struct {
	cfg    plan.Bottleneck
	c      *intrin.Ctx
	kn     *kernels.Bottleneck
	wt     kernels.BottleneckWeights
	in     []int8
	wsBase int
}

func newFusedRig(cfg plan.Bottleneck, poolBytes, segSize int, seed int64) (*fusedRig, error) {
	dev := mcu.New(mcu.CortexM7(), cfg.Cmid*cfg.Cin+cfg.R*cfg.S*cfg.Cmid+cfg.Cout*cfg.Cmid+4*(2*cfg.Cmid+cfg.Cout))
	if poolBytes+cfg.WorkspaceBytes() > dev.RAMSize() {
		return nil, fmt.Errorf("%s: rig of %d bytes exceeds RAM", cfg.Name, poolBytes+cfg.WorkspaceBytes())
	}
	pool, err := seg.NewPool(dev, 0, poolBytes, segSize)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	i8 := func(n int) []int8 {
		out := make([]int8, n)
		for i := range out {
			out[i] = int8(rng.Intn(255) - 127)
		}
		return out
	}
	i32 := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(rng.Intn(1<<9) - 1<<8)
		}
		return out
	}
	wt := kernels.BottleneckWeights{
		W1: i8(cfg.Cmid * cfg.Cin), B1: i32(cfg.Cmid),
		Wd: i8(cfg.R * cfg.S * cfg.Cmid), Bd: i32(cfg.Cmid),
		W2: i8(cfg.Cout * cfg.Cmid), B2: i32(cfg.Cout),
		Req1: tensor.NewRequant(0.01, 0), ReqD: tensor.NewRequant(0.05, 0), Req2: tensor.NewRequant(0.01, 0),
	}
	kn, err := kernels.NewBottleneck(dev, cfg, wt)
	if err != nil {
		return nil, err
	}
	return &fusedRig{cfg: cfg, c: intrin.NewCtx(dev, pool), kn: kn, wt: wt,
		in: i8(cfg.H * cfg.W * cfg.Cin), wsBase: poolBytes}, nil
}

// newPlannedRig sizes the pool as the graph executor does for the solved
// fused plan: its footprint less the workspace, rounded up to segments.
func newPlannedRig(cfg plan.Bottleneck, seed int64) (*fusedRig, plan.Plan, error) {
	p := plan.PlanBottleneckModule(cfg)
	poolBytes := (p.FootprintBytes - p.WorkspaceBytes + p.SegBytes - 1) / p.SegBytes * p.SegBytes
	r, err := newFusedRig(cfg, poolBytes, p.SegBytes, seed)
	return r, p, err
}

// run executes the whole module at p and returns the output bytes.
func (r *fusedRig) run(p plan.Plan) ([]int8, error) {
	inPl := kernels.PlaceInput(r.c, r.cfg.Name+".A", r.in, p.GapBytes())
	out, err := r.kn.Run(r.c, p, inPl, r.wsBase)
	if err != nil {
		return nil, err
	}
	return kernels.Extract(r.c, out), nil
}

// runPlanned runs cfg's solved plan, with gapSegs applied to it when
// non-nil, on a fresh rig.
func runPlanned(t *testing.T, cfg plan.Bottleneck, seed int64, gapSegs func(plan.Plan) int) (*fusedRig, []int8) {
	t.Helper()
	r, p, err := newPlannedRig(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if gapSegs != nil {
		p.GapSegs = gapSegs(p)
	}
	out, err := r.run(p)
	if err != nil {
		t.Fatal(err)
	}
	return r, out
}

func (r *fusedRig) golden() []int8 {
	cfg := r.cfg
	return kernels.GoldenBottleneck(r.in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
		cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, r.wt, cfg.Residual())
}

func allModules() []plan.Bottleneck {
	return append(graph.VWW().Modules, graph.ImageNet().Modules...)
}

// TestConv1MemoComputesEachBPixelOnce: on every VWW and ImageNet module's
// solved plan, the host computes conv1 exactly once per in-plane B pixel
// and the output stays bit-exact with no violations. (The device is still
// charged the per-row recompute; internal/cost pins those counters.)
func TestConv1MemoComputesEachBPixelOnce(t *testing.T) {
	for _, cfg := range allModules() {
		r, got := runPlanned(t, cfg, 3, nil)
		if err := r.c.Dev.CheckFaults(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !slices.Equal(got, r.golden()) {
			t.Fatalf("%s: output differs from golden", cfg.Name)
		}
		h1, w1, _, _, _, _ := cfg.Grids()
		if n := r.kn.HostConv1Computes(); n != h1*w1 {
			t.Errorf("%s: host computed %d B pixels, want h1·w1 = %d", cfg.Name, n, h1*w1)
		}
	}

	t.Run("changed A pixel is recomputed", func(t *testing.T) {
		cfg := graph.VWW().Modules[0]
		r, err := newFusedRig(cfg, cfg.H*cfg.W*cfg.Cin, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		inPl := kernels.PlaceInput(r.c, "A", r.in, 0)
		st := r.kn.NewConv1Stage(r.c, inPl)
		const bh, bw = 4, 7

		pixel := func() ([]int8, mcu.Stats) {
			before := r.c.Dev.Stats
			b := slices.Clone(st.Pixel(bh, bw))
			return b, r.c.Dev.Stats.Sub(before)
		}
		first, cost := pixel()
		again, costAgain := pixel()
		if n := r.kn.HostConv1Computes(); n != 1 {
			t.Fatalf("two uses of unchanged bytes computed %d times, want 1", n)
		}
		if !slices.Equal(again, first) || costAgain != cost {
			t.Fatalf("memo hit gave %v charging %+v, compute gave %v charging %+v", again, costAgain, first, cost)
		}

		// Rewrite one byte of the A pixel in place, keeping its tag, as a
		// clobbering write by the same tensor would.
		elem := (bh*cfg.W + bw) * cfg.Cin
		r.in[elem+3] ^= 0x55
		r.c.Pool.WriteRawBytes(elem+3, []byte{byte(r.in[elem+3])})
		changed, costChanged := pixel()
		if n := r.kn.HostConv1Computes(); n != 2 {
			t.Fatalf("after changing one A byte: %d computes, want 2", n)
		}
		want := kernels.GoldenPointwise(r.in[elem:elem+cfg.Cin], 1, 1, cfg.Cin, cfg.Cmid, 1, r.wt.W1, r.wt.B1, r.wt.Req1)
		if !slices.Equal(changed, want) || costChanged != cost {
			t.Fatalf("recomputed pixel %v charging %+v, want %v charging %+v", changed, costChanged, want, cost)
		}
		if slices.Equal(changed, first) {
			t.Fatal("premise: the changed byte did not change the B pixel")
		}
		if err := r.c.Dev.CheckFaults(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFaultyFusedPlansUnchanged runs under-allocated fused plans and pins
// the device's verdict: violation count, first violation and the SHA-256
// of the output bytes. The values were recorded with the kernel before it
// kept a conv1 memo, so they prove the memo changes nothing a faulty plan
// shows. The Run cases place the output gapSegs segments below the input
// (gap ≤ 0 overlaps them from the start); the patch case gives its input
// window too few rows. Every case reads clobbered A bytes of an already
// computed B pixel again, and the memo must miss on them: the host
// computes more B pixels than the same geometry does unclobbered.
func TestFaultyFusedPlansUnchanged(t *testing.T) {
	vww, imnet := graph.VWW(), graph.ImageNet()
	s1, b2, b4 := vww.Modules[0], imnet.Modules[1], imnet.Modules[3]
	type verdict struct {
		violations int
		first      string
		sha        string
	}
	cases := []struct {
		name    string
		cfg     plan.Bottleneck
		gapSegs int // Run with the output this many segments below the input
		patch   bool
		want    verdict
	}{
		{name: "S1 gap-1", cfg: s1, gapSegs: -1,
			want: verdict{12752, "read-clobbered at addr 0: want tensor 1 elem 16, got tensor 2 elem 0",
				"2d2941eb35e26aa1da3071929bf78ee0e8e8bc137e20a3e44839ca45ee678ec9"}},
		{name: "S1 gap-2", cfg: s1, gapSegs: -2,
			want: verdict{18784, "read-clobbered at addr 0: want tensor 1 elem 32, got tensor 2 elem 0",
				"af7e149e6df27ca06c4e035bf740553aad7c24ebd2f84c4a7c7b43ca55b7de14"}},
		{name: "S1 gap0", cfg: s1, gapSegs: 0,
			want: verdict{6080, "read-clobbered at addr 0: want tensor 1 elem 0, got tensor 2 elem 0",
				"640f9c7b91ca4ed91deae90856efe6a3b5e826769f07ff6feb5553e86fb23b66"}},
		{name: "B4 gap-1", cfg: b4, gapSegs: -1,
			want: verdict{120304, "read-clobbered at addr 0: want tensor 1 elem 16, got tensor 2 elem 0",
				"d334c62bcca641578a9363bb67102553385b7d99b8e75553f287c3a51344db3f"}},
		{name: "B4 gap-2", cfg: b4, gapSegs: -2,
			want: verdict{120928, "read-clobbered at addr 0: want tensor 1 elem 32, got tensor 2 elem 0",
				"9f63352d4811851347db72b639e404bc0318796eadc0b0b32349a43c4659f986"}},
		{name: "B4 gap0", cfg: b4, gapSegs: 0,
			want: verdict{88704, "read-clobbered at addr 0: want tensor 1 elem 0, got tensor 2 elem 0",
				"5be8fc20e252e7280b48a343becef26e90b7f961c4ab7bd47e00c00f777bc8cd"}},
		{name: "B2 undersized patch window", cfg: b2, patch: true,
			want: verdict{2816, "read-clobbered at addr 2816: want tensor 1 elem 2816, got tensor 2 elem 0",
				"bc3ef972d9b414ed4754666a5c84274fea4f2c0e0218e5a05919b38b1e006b9e"}},
	}
	for _, cse := range cases {
		var (
			r     *fusedRig
			out   []int8
			clean int // B pixels the host computes for this geometry unclobbered
		)
		if cse.patch {
			r, out = runPatchWindow(t, cse.cfg, 4)
			ok, _ := runPatchWindow(t, cse.cfg, 0)
			clean = ok.kn.HostConv1Computes()
		} else {
			r, out = runPlanned(t, cse.cfg, 13, func(plan.Plan) int { return cse.gapSegs })
			h1, w1, _, _, _, _ := cse.cfg.Grids()
			clean = h1 * w1
		}
		vs, n := r.c.Dev.Violations()
		got := verdict{violations: n}
		if n > 0 {
			got.first = vs[0].String()
		}
		sum := sha256.Sum256(int8Bytes(out))
		got.sha = hex.EncodeToString(sum[:])
		if got != cse.want {
			t.Errorf("%s: got %#v, want %#v", cse.name, got, cse.want)
		}
		if computes := r.kn.HostConv1Computes(); computes <= clean {
			t.Errorf("%s: host computed %d B pixels, want more than the unclobbered %d", cse.name, computes, clean)
		}
	}
}

// runPatchWindow runs output rows [8,16) of cfg as one patch. With
// windowRows > 0 the output placement begins windowRows input rows into
// the patch's input window, so the first output rows overwrite window
// rows that later output rows read again; with 0 the two are disjoint.
func runPatchWindow(t *testing.T, cfg plan.Bottleneck, windowRows int) (*fusedRig, []int8) {
	t.Helper()
	_, _, _, _, _, w3 := cfg.Grids()
	o := plan.RowRange{Lo: 8, Hi: 16}
	need := plan.InputRows(cfg, o)
	inRow := cfg.W * cfg.Cin
	outBytes := o.Len() * w3 * cfg.Cout
	outOff := need.Len() * inRow
	if windowRows > 0 {
		outOff = windowRows * inRow
	}
	r, err := newFusedRig(cfg, outOff+max(outBytes, need.Len()*inRow), 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	inPl := kernels.PlaceInput(r.c, "A", r.in[need.Lo*inRow:need.Hi*inRow], 0)
	outPl := kernels.Placement{ID: r.c.Dev.NewTensorID("E"), Off: outOff, Bytes: outBytes}
	err = r.kn.RunPatch(r.c, inPl, outPl, r.wsBase, kernels.Patch{
		OutRow0: o.Lo, OutRows: o.Len(), InRow0: need.Lo, InRows: need.Len(), OutRowBase: o.Lo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, kernels.Extract(r.c, outPl)
}

func int8Bytes(v []int8) []byte {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = byte(x)
	}
	return b
}

// TestFusedKernelsConcurrent runs the VWW modules on several goroutines at
// once, each on its own device and in its own order, so pooled conv1
// stages pass between shapes and goroutines. Every run must reproduce the
// sequential output bit for bit, with the host computing each B pixel
// once. Run it under -race.
func TestFusedKernelsConcurrent(t *testing.T) {
	mods := graph.VWW().Modules
	want := make([][]int8, len(mods))
	for i, cfg := range mods {
		_, want[i] = runPlanned(t, cfg, int64(i), nil)
	}
	const workers, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(mods))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds*len(mods); n++ {
				i := (g*3 + n) % len(mods)
				cfg := mods[i]
				r, p, err := newPlannedRig(cfg, int64(i))
				if err != nil {
					errs <- err
					continue
				}
				got, err := r.run(p)
				h1, w1, _, _, _, _ := cfg.Grids()
				switch {
				case err != nil:
					errs <- fmt.Errorf("worker %d: %s: %v", g, cfg.Name, err)
				case !slices.Equal(got, want[i]):
					errs <- fmt.Errorf("worker %d: %s output differs from the sequential run", g, cfg.Name)
				case r.c.Dev.CheckFaults() != nil:
					errs <- fmt.Errorf("worker %d: %s: %v", g, cfg.Name, r.c.Dev.CheckFaults())
				case r.kn.HostConv1Computes() != h1*w1:
					errs <- fmt.Errorf("worker %d: %s computed %d B pixels, want %d", g, cfg.Name, r.kn.HostConv1Computes(), h1*w1)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
