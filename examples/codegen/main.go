// Codegen walkthrough (paper §6): build the Figure-4 fully connected
// kernel through the loop-nest IR, execute it with the interpreter on the
// simulated MCU, and lower the same program to ARM-intrinsic C.
//
//	go run ./examples/codegen
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"github.com/vmcu-project/vmcu/internal/codegen"
	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/ir"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

func main() {
	const m, k, n = 8, 32, 16
	p := plan.FC(m, k, n)
	req := tensor.NewRequant(0.015, 0)
	prog := ir.BuildFC(m, k, n, p.SegBytes, req)

	// 1. Interpret the IR against the simulated MCU.
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	capBytes := p.PoolBytes()
	pool, err := seg.NewPool(dev, 0, capBytes)
	if err != nil {
		log.Fatal(err)
	}
	ctx := intrin.NewCtx(dev, pool)
	rng := rand.New(rand.NewSource(1))
	in := make([]int8, m*k)
	w := make([]int8, n*k)
	bias := make([]int32, n)
	for i := range in {
		in[i] = int8(rng.Intn(255) - 127)
	}
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	wRef, _ := kernels.PackInt8(dev, w)
	bRef, _ := kernels.PackInt32(dev, bias)
	inPl := kernels.PlaceInput(ctx, "In", in, p.GapBytes())
	outID := dev.NewTensorID("Out")
	err = ir.Run(prog, ctx, ir.Bindings{
		Tensors: map[string]ir.TensorBinding{
			"In":  {ID: inPl.ID, Off: inPl.Off},
			"Out": {ID: outID, Off: inPl.Off - p.GapBytes()},
		},
		Blobs: map[string]mcu.FlashRef{"Weight": wRef, "Bias": bRef},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.CheckFaults(); err != nil {
		log.Fatal(err)
	}
	got := kernels.Extract(ctx, kernels.Placement{ID: outID, Off: inPl.Off - p.GapBytes(), Bytes: m * n})
	want := kernels.GoldenFC(in, m, k, n, w, bias, req)
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("IR output mismatch at %d", i)
		}
	}
	fmt.Printf("interpreted FC %dx%dx%d on the simulated M4: %d MACs, output bit-exact\n\n",
		m, k, n, dev.Stats.MACs)

	// 2. Lower the same program to C.
	src := codegen.EmitC(prog, codegen.Options{PoolCapBytes: capBytes})
	fmt.Printf("generated C (%d lines). Excerpt:\n\n", strings.Count(src, "\n"))
	lines := strings.Split(src, "\n")
	for _, l := range lines {
		if strings.Contains(l, "void vmcu_fc") || strings.Contains(l, "vmcu_pool_read") ||
			strings.Contains(l, "vmcu_dot_s8(va") || strings.Contains(l, "vmcu_pool_write") {
			fmt.Println("   ", strings.TrimSpace(l))
		}
	}
	fmt.Println("\nfull source available via: go run ./cmd/vmcu-codegen -m 8 -k 32 -n 16")
}
