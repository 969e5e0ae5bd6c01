package ir

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

func TestIndexAlgebra(t *testing.T) {
	x := Term("m", 8).PlusTerm("k", 2).Plus(Idx(5))
	env := map[string]int{"m": 3, "k": 4}
	got, err := x.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8*3+2*4+5 {
		t.Errorf("Eval = %d, want 37", got)
	}
	if _, err := Term("z", 1).Eval(env); err == nil {
		t.Error("unbound variable not rejected")
	}
}

func TestIndexString(t *testing.T) {
	x := Term("m", 8).PlusTerm("k", 1).Plus(Idx(5))
	if s := x.String(); s != "k + 8*m + 5" {
		t.Errorf("String = %q", s)
	}
	if s := Idx(0).String(); s != "0" {
		t.Errorf("zero index String = %q", s)
	}
}

func TestBuilderNesting(t *testing.T) {
	b := NewBuilder("nest")
	b.For("i", 2, func(i Index) {
		b.For("j", 3, func(j Index) {
			b.RegAlloc("acc", 4)
		})
	})
	p := b.Build()
	if len(p.Body) != 1 {
		t.Fatalf("body has %d nodes, want 1", len(p.Body))
	}
	outer, ok := p.Body[0].(For)
	if !ok || outer.Var != "i" || outer.Extent != 2 {
		t.Fatalf("outer loop wrong: %+v", p.Body[0])
	}
	inner, ok := outer.Body[0].(For)
	if !ok || inner.Var != "j" || inner.Extent != 3 {
		t.Fatalf("inner loop wrong: %+v", outer.Body[0])
	}
	if _, ok := inner.Body[0].(RegAlloc); !ok {
		t.Fatalf("leaf wrong: %+v", inner.Body[0])
	}
}

func TestBuildFCPanicsOnBadSegment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildFC(2, 10, 8, 8, tensor.NewRequant(0.5, 0))
}

// TestInterpretedFCMatchesHandKernel is the §6 equivalence proof: the IR
// program built by the "Python-interface" builder, run by the interpreter,
// must produce exactly the hand-written kernel's bytes, charge comparable
// costs, and respect the same memory plan.
func TestInterpretedFCMatchesHandKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct{ m, k, n int }{{3, 8, 16}, {4, 16, 8}, {2, 24, 24}, {5, 8, 8}}
	for _, cse := range cases {
		p := plan.FC(cse.m, cse.k, cse.n)
		req := tensor.NewRequant(0.02, 1)
		in := make([]int8, cse.m*cse.k)
		w := make([]int8, cse.n*cse.k)
		bias := make([]int32, cse.n)
		for i := range in {
			in[i] = int8(rng.Intn(255) - 127)
		}
		for i := range w {
			w[i] = int8(rng.Intn(255) - 127)
		}
		for i := range bias {
			bias[i] = int32(rng.Intn(1 << 9))
		}

		run := func(useIR bool) ([]int8, mcu.Stats, error) {
			dev := mcu.New(mcu.CortexM4(), 1<<16)
			pool, err := seg.NewPool(dev, 0, p.PoolBytes())
			if err != nil {
				return nil, mcu.Stats{}, err
			}
			ctx := intrin.NewCtx(dev, pool)
			wRef, err := kernels.PackInt8(dev, w)
			if err != nil {
				return nil, mcu.Stats{}, err
			}
			bRef, err := kernels.PackInt32(dev, bias)
			if err != nil {
				return nil, mcu.Stats{}, err
			}
			inPl := kernels.PlaceInput(ctx, "In", in, p.GapBytes())
			var outBytes []int8
			if useIR {
				prog := BuildFC(cse.m, cse.k, cse.n, p.SegBytes, req)
				outID := dev.NewTensorID("Out")
				err = Run(prog, ctx, Bindings{
					Tensors: map[string]TensorBinding{
						"In":  {ID: inPl.ID, Off: inPl.Off},
						"Out": {ID: outID, Off: inPl.Off - p.GapBytes()},
					},
					Blobs: map[string]mcu.FlashRef{"Weight": wRef, "Bias": bRef},
				})
				if err != nil {
					return nil, mcu.Stats{}, err
				}
				outBytes = kernels.Extract(ctx, kernels.Placement{
					ID: outID, Off: inPl.Off - p.GapBytes(), Bytes: cse.m * cse.n})
			} else {
				fc := &kernels.FC{M: cse.m, K: cse.k, N: cse.n, Weight: wRef, Bias: bRef, Req: req}
				out, err := fc.Run(ctx, p, inPl)
				if err != nil {
					return nil, mcu.Stats{}, err
				}
				outBytes = kernels.Extract(ctx, out)
			}
			if err := dev.CheckFaults(); err != nil {
				return nil, mcu.Stats{}, err
			}
			return outBytes, dev.Stats, nil
		}

		irOut, irStats, err := run(true)
		if err != nil {
			t.Fatalf("%dx%dx%d IR: %v", cse.m, cse.k, cse.n, err)
		}
		handOut, handStats, err := run(false)
		if err != nil {
			t.Fatalf("%dx%dx%d hand: %v", cse.m, cse.k, cse.n, err)
		}
		for i := range handOut {
			if irOut[i] != handOut[i] {
				t.Fatalf("%dx%dx%d: IR out[%d] = %d, hand %d", cse.m, cse.k, cse.n, i, irOut[i], handOut[i])
			}
		}
		want := kernels.GoldenFC(in, cse.m, cse.k, cse.n, w, bias, req)
		for i := range want {
			if irOut[i] != want[i] {
				t.Fatalf("%dx%dx%d: IR out[%d] = %d, golden %d", cse.m, cse.k, cse.n, i, irOut[i], want[i])
			}
		}
		if irStats.MACs != handStats.MACs {
			t.Errorf("%dx%dx%d: IR MACs %d != hand %d", cse.m, cse.k, cse.n, irStats.MACs, handStats.MACs)
		}
		if irStats.RAMReadBytes != handStats.RAMReadBytes {
			t.Errorf("%dx%dx%d: IR RAM reads %d != hand %d", cse.m, cse.k, cse.n, irStats.RAMReadBytes, handStats.RAMReadBytes)
		}
	}
}

func TestRunRejectsUnboundNames(t *testing.T) {
	prog := BuildFC(2, 8, 8, 8, tensor.NewRequant(0.5, 0))
	dev := mcu.New(mcu.CortexM4(), 1<<12)
	pool, _ := seg.NewPool(dev, 0, 256)
	ctx := intrin.NewCtx(dev, pool)
	if err := Run(prog, ctx, Bindings{}); err == nil {
		t.Error("unbound tensors accepted")
	}
	if err := Run(prog, ctx, Bindings{
		Tensors: map[string]TensorBinding{"In": {}, "Out": {}},
	}); err == nil {
		t.Error("unbound blobs accepted")
	}
}

func TestInterpreterErrorsOnBadProgram(t *testing.T) {
	dev := mcu.New(mcu.CortexM4(), 1<<12)
	pool, _ := seg.NewPool(dev, 0, 256)
	ctx := intrin.NewCtx(dev, pool)
	id := dev.NewTensorID("t")
	bind := Bindings{Tensors: map[string]TensorBinding{"T": {ID: id}}}

	// Dot against unloaded registers.
	b := NewBuilder("bad")
	b.DeclareTensor("T")
	b.RegAlloc("acc", 2)
	b.Dot("acc", Idx(0), "nope", "nada")
	if err := Run(b.Build(), ctx, bind); err == nil {
		t.Error("Dot on unloaded registers accepted")
	}

	// Dot lane out of range.
	b2 := NewBuilder("bad2")
	b2.DeclareTensor("T")
	b2.RegAlloc("acc", 1)
	b2.RAMLoad("va", 2, "T", Idx(0))
	b2.FlashLoad("vb", 2, "B", Idx(0))
	b2.DeclareBlob("B")
	ref, _ := dev.FlashAlloc([]byte{1, 2})
	bind.Blobs = map[string]mcu.FlashRef{"B": ref}
	b2.Dot("acc", Idx(5), "va", "vb")
	if err := Run(b2.Build(), ctx, bind); err == nil {
		t.Error("out-of-range lane accepted")
	}
}
