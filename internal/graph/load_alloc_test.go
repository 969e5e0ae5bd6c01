//go:build !race

// The race detector makes sync.Pool drop items at random, so under -race
// the pooled device is not the one reused and this bound does not hold.

package graph

import (
	"testing"

	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
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
