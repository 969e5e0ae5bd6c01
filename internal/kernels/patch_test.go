package kernels

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
)

// patchRig builds a flat byte-granular pool large enough for explicit
// patch placements plus the module workspace at the pool's end.
func patchRig(t *testing.T, poolBytes, wsBytes int) (*intrin.Ctx, int) {
	t.Helper()
	capBytes := (poolBytes + 3) / 4 * 4
	dev := mcu.New(mcu.CortexM4(), 1<<22)
	pool, err := seg.NewPool(dev, 0, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	if capBytes+wsBytes > dev.RAMSize() {
		t.Fatalf("patch rig too large: %d", capBytes+wsBytes)
	}
	return intrin.NewCtx(dev, pool), capBytes
}

// TestBottleneckRunPatchJoinsBitExact splits a module's output rows into
// patches, runs each patch from its own input-row window placement, joins
// the rows into one output region, and verifies the join bit-exactly
// against the golden whole-plane composition with zero violations.
func TestBottleneckRunPatchJoinsBitExact(t *testing.T) {
	cases := []struct {
		cfg     plan.Bottleneck
		patches int
	}{
		{plan.Bottleneck{Name: "p-dw2", H: 12, W: 12, Cin: 4, Cmid: 8, Cout: 8, R: 3, S: 3, S1: 1, S2: 2, S3: 1}, 3},
		{plan.Bottleneck{Name: "p-s1", H: 16, W: 16, Cin: 4, Cmid: 8, Cout: 6, R: 3, S: 3, S1: 2, S2: 1, S3: 1}, 4},
		{plan.Bottleneck{Name: "p-7x7", H: 10, W: 10, Cin: 4, Cmid: 8, Cout: 8, R: 7, S: 7, S1: 1, S2: 1, S3: 1}, 5},
		{plan.Bottleneck{Name: "p-s3", H: 12, W: 12, Cin: 4, Cmid: 8, Cout: 6, R: 3, S: 3, S1: 1, S2: 1, S3: 2}, 2},
	}
	rng := rand.New(rand.NewSource(91))
	for _, cse := range cases {
		cfg := cse.cfg
		_, _, _, _, h3, w3 := cfg.Grids()
		outBytes := h3 * w3 * cfg.Cout
		inRowBytes := cfg.W * cfg.Cin
		c, capBytes := patchRig(t, outBytes+cfg.H*inRowBytes+256, cfg.WorkspaceBytes())
		wsBase := capBytes

		wt := randomWeights(rng, cfg)
		kn, err := NewBottleneck(c.Dev, cfg, wt)
		if err != nil {
			t.Fatal(err)
		}
		in := randInt8(rng, cfg.H*cfg.W*cfg.Cin)

		outID := c.Dev.NewTensorID(cfg.Name + ".join")
		outPl := Placement{ID: outID, Off: 0, Bytes: outBytes}

		rows := h3 / cse.patches
		for j := 0; j < cse.patches; j++ {
			o0 := j * rows
			o1 := o0 + rows
			if j == cse.patches-1 {
				o1 = h3
			}
			need := plan.InputRows(cfg, plan.RowRange{Lo: o0, Hi: o1})
			// Place only the required input window, fresh per patch.
			slice := in[need.Lo*inRowBytes : need.Hi*inRowBytes]
			inPl := PlaceInput(c, cfg.Name+".A", slice, outBytes+64)
			err := kn.RunPatch(c, inPl, outPl, wsBase, Patch{
				OutRow0: o0, OutRows: o1 - o0,
				InRow0: need.Lo, InRows: need.Len(),
				OutRowBase: 0,
			})
			if err != nil {
				t.Fatalf("%s patch %d: %v", cfg.Name, j, err)
			}
			FreeAll(c, inPl)
		}
		if err := c.Dev.CheckFaults(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		got := Extract(c, outPl)
		want := GoldenBottleneck(in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
			cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, false)
		if len(got) != len(want) {
			t.Fatalf("%s: size %d, want %d", cfg.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: joined out[%d] = %d, want %d", cfg.Name, i, got[i], want[i])
			}
		}
		if _, n := c.Dev.Violations(); n != 0 {
			t.Errorf("%s: %d shadow-state violations in patch execution", cfg.Name, n)
		}
	}
}

// TestBottleneckRunPatchStandaloneTensor writes a patch into its own
// standalone tensor (OutRowBase = OutRow0), the layout intermediate split
// stages use, and checks the rows match the golden plane slice.
func TestBottleneckRunPatchStandaloneTensor(t *testing.T) {
	cfg := plan.Bottleneck{Name: "p-mid", H: 12, W: 12, Cin: 4, Cmid: 8, Cout: 8,
		R: 3, S: 3, S1: 1, S2: 2, S3: 1}
	_, _, _, _, _, w3 := cfg.Grids()
	rng := rand.New(rand.NewSource(97))
	c, capBytes := patchRig(t, 1<<14, cfg.WorkspaceBytes())
	wt := randomWeights(rng, cfg)
	kn, err := NewBottleneck(c.Dev, cfg, wt)
	if err != nil {
		t.Fatal(err)
	}
	in := randInt8(rng, cfg.H*cfg.W*cfg.Cin)
	o := plan.RowRange{Lo: 2, Hi: 4}
	need := plan.InputRows(cfg, o)
	slice := in[need.Lo*cfg.W*cfg.Cin : need.Hi*cfg.W*cfg.Cin]
	inPl := PlaceInput(c, "A", slice, 4096)
	outPl := Placement{ID: c.Dev.NewTensorID("patch"), Off: 0, Bytes: o.Len() * w3 * cfg.Cout}
	err = kn.RunPatch(c, inPl, outPl, capBytes, Patch{
		OutRow0: o.Lo, OutRows: o.Len(), InRow0: need.Lo, InRows: need.Len(), OutRowBase: o.Lo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	got := Extract(c, outPl)
	want := GoldenBottleneck(in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
		cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, false)[o.Lo*w3*cfg.Cout : o.Hi*w3*cfg.Cout]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("standalone patch out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBottleneckRunPatchRejectsBadSpans pins the validation: residual
// modules, rows outside the plane, and input windows that do not cover the
// receptive field must all error before touching the pool.
func TestBottleneckRunPatchRejectsBadSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	res := plan.Bottleneck{Name: "p-res", H: 8, W: 8, Cin: 8, Cmid: 16, Cout: 8,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	c, capBytes := patchRig(t, 1<<13, res.WorkspaceBytes())
	knRes, err := NewBottleneck(c.Dev, res, randomWeights(rng, res))
	if err != nil {
		t.Fatal(err)
	}
	dummy := Placement{ID: c.Dev.NewTensorID("d"), Off: 0, Bytes: 1 << 12}
	if err := knRes.RunPatch(c, dummy, dummy, capBytes, Patch{OutRows: 2, InRows: 8}); err == nil {
		t.Error("residual module accepted for patch execution")
	}

	cfg := plan.Bottleneck{Name: "p-bad", H: 8, W: 8, Cin: 4, Cmid: 8, Cout: 8,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	kn, err := NewBottleneck(c.Dev, cfg, randomWeights(rng, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := kn.RunPatch(c, dummy, dummy, capBytes, Patch{OutRow0: 6, OutRows: 4, InRows: 8}); err == nil {
		t.Error("out-of-plane patch accepted")
	}
	// Rows [2,4) need input rows [1,5); offering [2,5) must be rejected.
	short := Placement{ID: c.Dev.NewTensorID("s"), Off: 0, Bytes: 3 * 8 * 4}
	if err := kn.RunPatch(c, short, dummy, capBytes, Patch{OutRow0: 2, OutRows: 2, InRow0: 2, InRows: 3}); err == nil {
		t.Error("input window missing halo rows accepted")
	}
	// An output base above OutRow0 would write below the placement.
	ok := Placement{ID: c.Dev.NewTensorID("ok"), Off: 0, Bytes: 8 * 8 * 4}
	for _, base := range []int{-1, 3} {
		if err := kn.RunPatch(c, ok, dummy, capBytes, Patch{OutRow0: 2, OutRows: 2, InRow0: 0, InRows: 8, OutRowBase: base}); err == nil {
			t.Errorf("output row base %d accepted", base)
		}
	}
}
