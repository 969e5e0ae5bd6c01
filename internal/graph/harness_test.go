package graph

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// TestExecutorsVerifyEveryRun checks that each executor's pooled harness
// takes a fresh verdict on every run. Each executor runs one unit on two
// inputs in a row, which reuses the same harness, and both must verify.
// Then it runs the unit with a Flash image drawn from other weights than
// the golden reference's, and that run must fail verification with no
// shadow-state violation: the device computed the wrong bytes, safely.
// A harness that compared against a stale golden, or compared the
// readback with itself, would pass one of these checks it should fail.
func TestExecutorsVerifyEveryRun(t *testing.T) {
	prof := mcu.CortexM4()
	cfg := plan.Bottleneck{Name: "R", H: 10, W: 10, Cin: 8, Cmid: 24, Cout: 8, R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	split, err := plan.PlanSplit(plan.SplitSpec{Modules: tinySplitRegion(), Patches: 3})
	if err != nil {
		t.Fatal(err)
	}
	seam := table2Seams(VWW())[0]
	module := func(c plan.Bottleneck, seed int64) *ModuleWeights {
		mw, err := drawModule(rand.New(rand.NewSource(seed)), c)
		if err != nil {
			t.Fatal(err)
		}
		return mw
	}
	// misflash returns mw with the Flash image of weights drawn from seed.
	misflash := func(mw *ModuleWeights, seed int64) *ModuleWeights {
		bad := *mw
		bad.Image = module(mw.Cfg, seed).Image
		return &bad
	}
	sw, err := drawSeam(rand.New(rand.NewSource(1)), seam)
	if err != nil {
		t.Fatal(err)
	}
	badSeam := *sw
	if other, err := drawSeam(rand.New(rand.NewSource(2)), seam); err != nil {
		t.Fatal(err)
	} else {
		badSeam.Image = other.Image
	}
	mw := module(cfg, 1)
	mws := []*ModuleWeights{module(tinySplitRegion()[0], 1), module(tinySplitRegion()[1], 2)}

	type runner func(input int64) (ExecResult, error)
	for _, ex := range []struct {
		name      string
		good, bad runner
	}{
		{"module",
			func(in int64) (ExecResult, error) {
				return ExecModule(prof, mw, plan.PlanBottleneckModule(cfg), seeded(in))
			},
			func(in int64) (ExecResult, error) {
				return ExecModule(prof, misflash(mw, 3), plan.PlanBottleneckModule(cfg), seeded(in))
			}},
		{"unfused",
			func(in int64) (ExecResult, error) { return ExecModuleUnfused(prof, mw, seeded(in)) },
			func(in int64) (ExecResult, error) { return ExecModuleUnfused(prof, misflash(mw, 3), seeded(in)) }},
		{"seam",
			func(in int64) (ExecResult, error) { return ExecSeam(prof, sw, plan.PlanSeam(seam), seeded(in)) },
			func(in int64) (ExecResult, error) { return ExecSeam(prof, &badSeam, plan.PlanSeam(seam), seeded(in)) }},
		{"split",
			func(in int64) (ExecResult, error) { return ExecSplitRegion(prof, split, mws, seeded(in)) },
			func(in int64) (ExecResult, error) {
				return ExecSplitRegion(prof, split, []*ModuleWeights{mws[0], misflash(mws[1], 3)}, seeded(in))
			}},
	} {
		for _, in := range []int64{10, 11} {
			r, err := ex.good(in)
			if err != nil {
				t.Fatalf("%s input %d: %v", ex.name, in, err)
			}
			if !r.OutputOK || r.Violations != 0 {
				t.Errorf("%s input %d: verified=%v violations=%d, want a clean pass", ex.name, in, r.OutputOK, r.Violations)
			}
		}
		r, err := ex.bad(11)
		if err != nil {
			t.Fatalf("%s mis-flashed: %v", ex.name, err)
		}
		if r.OutputOK || r.Violations != 0 {
			t.Errorf("%s mis-flashed: verified=%v violations=%d, want a failed verification and no violation",
				ex.name, r.OutputOK, r.Violations)
		}
	}
}

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRunPlacesPoolAtItsBase checks that the harness builds the unit's
// pool where it is told: after a fused module runs in a pool at RAM
// address base, no byte below base was written, and the output (at pool
// offset 0) sits at base.
func TestRunPlacesPoolAtItsBase(t *testing.T) {
	prof := mcu.CortexM4()
	cfg := plan.Bottleneck{Name: "R", H: 10, W: 10, Cin: 8, Cmid: 24, Cout: 8, R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	mw, err := drawModule(seeded(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.PlanBottleneckModule(cfg)
	const base = 1000
	r, err := execModule(prof, mw, p, seeded(2), poolAt{base, 3 * p.PoolBytes()})
	if err != nil || !r.OutputOK || r.Violations != 0 {
		t.Fatalf("verified=%v violations=%d err=%v", r.OutputOK, r.Violations, err)
	}
	dev, ok := devicePool(prof.RAMBytes()).Get() // the device the run released
	if !ok {
		t.Fatal("no pooled device after the run")
	}
	defer releaseDevice(dev)
	below := make([]byte, base)
	dev.ReadRaw(0, below)
	if !slices.Equal(below, make([]byte, base)) {
		t.Errorf("the run wrote RAM below its pool's base %d", base)
	}
	out := make([]byte, r.Plan.OutBytes)
	dev.ReadRaw(base, out)
	if slices.Equal(out, make([]byte, len(out))) {
		t.Errorf("no output at the pool's base %d", base)
	}
}
