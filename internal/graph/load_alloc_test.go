//go:build !race

// Allocation bounds are checked without the race detector, which drops
// sync.Pool items at random; the tier-1 test step runs them.

package graph

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// The warm per-unit allocation counts TestWarmUnitAllocations allows.
const (
	warmModuleAllocs = 4
	warmSeamAllocs   = 6
)

// TestFlashLoadAllocatesNothing guards the verified path's Flash load:
// restoring a pooled device and copying a unit's prebuilt image into its
// Flash allocates nothing, for every module and seam of VWW and ImageNet.
// Repacking weights per run would allocate a staging buffer per tensor.
func TestFlashLoadAllocatesNothing(t *testing.T) {
	prof := mcu.CortexM4()
	for _, net := range []Network{VWW(), ImageNet()} {
		w, err := DrawWeights(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ims []*kernels.FlashImage
		for i, mw := range w.Modules {
			ims = append(ims, mw.Image)
			if sw := w.Seams[i]; sw != nil {
				ims = append(ims, sw.Image)
			}
		}
		for _, im := range ims {
			flash := im.Bytes() + flashSlack
			dev := acquireDevice(prof, flash)
			allocs := testing.AllocsPerRun(20, func() {
				dev.Reset(prof, flash)
				if _, err := im.Load(dev); err != nil {
					t.Fatal(err)
				}
			})
			releaseDevice(dev)
			if allocs != 0 {
				t.Errorf("%s: loading a %d-byte image allocated %.0f times, want 0", net.Name, im.Bytes(), allocs)
			}
		}
	}
}

// TestWarmUnitAllocations bounds what a warm per-unit run allocates on the
// host, for the fused module and the seam: with the device and harness
// pools warm, what is left is the kernel struct, the tensor-name strings
// and the pool and context the harness builds. A closure or interface of
// the unit harness that escaped to the heap would add to it on every
// unit, which a verified request pays 13 times on VWW. The bounds are the
// counts measured when the harness was introduced.
func TestWarmUnitAllocations(t *testing.T) {
	prof := mcu.CortexM4()
	w, err := DrawWeights(VWW(), 1)
	if err != nil {
		t.Fatal(err)
	}
	mw := w.Modules[4] // S5
	var sw *SeamWeights
	for _, s := range w.Seams {
		if s != nil {
			sw = s
			break
		}
	}
	p := plan.PlanBottleneckModule(mw.Cfg)
	sp := plan.PlanSeam(sw.Spec)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		bound float64
		run   func() (ExecResult, error)
	}{
		{"module", warmModuleAllocs, func() (ExecResult, error) { return ExecModule(prof, mw, p, rng) }},
		{"seam", warmSeamAllocs, func() (ExecResult, error) { return ExecSeam(prof, sw, sp, rng) }},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			r, err := c.run()
			if err != nil || !r.OutputOK || r.Violations != 0 {
				t.Fatalf("%s: verified=%v violations=%d err=%v", c.name, r.OutputOK, r.Violations, err)
			}
		})
		if allocs > c.bound {
			t.Errorf("a warm %s run allocates %.0f times, want at most %.0f", c.name, allocs, c.bound)
		} else {
			t.Logf("a warm %s run allocates %.0f times", c.name, allocs)
		}
	}
}
