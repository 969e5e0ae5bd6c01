package intrin_test

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// BenchmarkFlashMatVec runs the second pointwise of ImageNet's B4 for one
// output pixel, the fused kernel's per-pixel mat-vec: Cout weight rows of
// Cmid bytes in Flash against one C pixel.
func BenchmarkFlashMatVec(b *testing.B) {
	cfg := graph.ImageNet().Modules[3]
	rng := rand.New(rand.NewSource(1))
	w := make([]byte, cfg.Cout*cfg.Cmid)
	for i := range w {
		w[i] = byte(rng.Intn(256))
	}
	dev := mcu.New(mcu.CortexM4(), len(w))
	ref, err := dev.FlashAlloc(w)
	if err != nil {
		b.Fatal(err)
	}
	c := intrin.NewCtx(dev, nil)
	a := make([]int8, cfg.Cmid)
	for i := range a {
		a[i] = int8(rng.Intn(256) - 128)
	}
	bias := make([]int32, cfg.Cout)
	out := make([]int8, cfg.Cout)
	req := tensor.NewRequant(0.01, 0)
	b.ReportAllocs()
	for b.Loop() {
		c.FlashMatVec(out, a, ref, 0, bias, req)
	}
	if err := dev.CheckFaults(); err != nil {
		b.Fatal(err)
	}
}
