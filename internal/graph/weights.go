package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Weights is a network's parameters as a flashed MCU holds them: one
// ModuleWeights per module and one SeamWeights per streamed boundary, each
// with its prebuilt Flash image. It is immutable once drawn, so every run
// of the network, on any device and goroutine, shares it; a run supplies
// only its input.
type Weights struct {
	Modules []*ModuleWeights
	// Seams[i] is the seam between module i and module i+1: nil where the
	// boundary chains shape-exactly or no strided pointwise expresses it
	// (plan.SeamOf), the boundaries that never execute a seam kernel.
	Seams []*SeamWeights
}

// ModuleWeights is one bottleneck module's parameters and their Flash
// image (kernels.BottleneckImage: W1, B1, Wd, Bd, W2, B2). The fused,
// baseline, unfused and split executors all load this one image.
type ModuleWeights struct {
	Cfg plan.Bottleneck
	kernels.BottleneckWeights
	Image *kernels.FlashImage
}

// SeamWeights is one seam's [Cout][Cin] weights, [Cout] bias and
// requantizer, and their Flash image (weights, then bias).
type SeamWeights struct {
	Spec  plan.SeamSpec
	W     []int8
	Bias  []int32
	Req   tensor.Requant
	Image *kernels.FlashImage
}

// DrawWeights draws net's weights from the model seed: module i from
// seed+i and the seam after module i from seed+len(net.Modules)+i, each
// exactly as the seeded executors (RunModuleWithPlan, RunSeam) draw a
// unit's weights from their seed. Every unit has its own stream, so the
// units are drawn concurrently, which shortens the network's first
// verified run.
func DrawWeights(net Network, seed int64) (*Weights, error) {
	n := len(net.Modules)
	w := &Weights{Modules: make([]*ModuleWeights, n), Seams: make([]*SeamWeights, n)}
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	draw := func(slot int, f func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[slot] = f(rand.New(rand.NewSource(seed + int64(slot))))
		}()
	}
	for i, cfg := range net.Modules {
		draw(i, func(rng *rand.Rand) (err error) {
			w.Modules[i], err = drawModule(rng, cfg)
			return err
		})
		if i+1 == n || plan.Connectable(cfg, net.Modules[i+1]) {
			continue
		}
		if spec, ok := plan.SeamOf(cfg, net.Modules[i+1]); ok {
			draw(n+i, func(rng *rand.Rand) (err error) {
				w.Seams[i], err = drawSeam(rng, spec)
				return err
			})
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return w, nil
}

// drawLayers draws each layer's int8 weights and then its int32 bias from
// rng, layer by layer, for shapes of {weights, biases} counts. It is the
// one place any weights are drawn.
func drawLayers(rng *rand.Rand, shapes ...[2]int) ([][]int8, [][]int32) {
	ws := make([][]int8, len(shapes))
	bs := make([][]int32, len(shapes))
	for i, sh := range shapes {
		ws[i] = drawInt8(rng, sh[0])
		bs[i] = make([]int32, sh[1])
		for j := range bs[i] {
			bs[i][j] = int32(rng.Intn(1<<9) - 1<<8)
		}
	}
	return ws, bs
}

// drawInt8 draws n int8 values from rng, each rng.Intn(255)-127: an
// activation, or one layer's weights. It inlines math/rand's Int31n for
// the constant 255 (the stream a seed yields is part of math/rand's
// compatibility promise), so both divisions become multiplies and a draw
// costs about half as much.
func drawInt8(rng *rand.Rand, n int) []int8 { return fillInt8(rng, make([]int8, n)) }

// fillInt8 fills out with drawInt8's stream and returns it.
func fillInt8(rng *rand.Rand, out []int8) []int8 {
	const limit = 1<<31 - 1 - (1<<31)%255 // Int31n's rejection bound for 255
	for i := range out {
		v := rng.Int31()
		for v > limit {
			v = rng.Int31()
		}
		out[i] = int8(v%255 - 127)
	}
	return out
}

func drawModule(rng *rand.Rand, cfg plan.Bottleneck) (*ModuleWeights, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws, bs := drawLayers(rng,
		[2]int{cfg.Cmid * cfg.Cin, cfg.Cmid},
		[2]int{cfg.R * cfg.S * cfg.Cmid, cfg.Cmid},
		[2]int{cfg.Cout * cfg.Cmid, cfg.Cout})
	wt := kernels.BottleneckWeights{
		W1: ws[0], B1: bs[0],
		Wd: ws[1], Bd: bs[1],
		W2: ws[2], B2: bs[2],
		Req1: tensor.NewRequant(0.01, 0),
		ReqD: tensor.NewRequant(0.05, 0),
		Req2: tensor.NewRequant(0.01, 0),
	}
	im, err := kernels.BottleneckImage(cfg, wt)
	if err != nil {
		return nil, err
	}
	return &ModuleWeights{Cfg: cfg, BottleneckWeights: wt, Image: im}, nil
}

func drawSeam(rng *rand.Rand, spec plan.SeamSpec) (*SeamWeights, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ws, bs := drawLayers(rng, [2]int{spec.Cout * spec.Cin, spec.Cout})
	return &SeamWeights{
		Spec: spec, W: ws[0], Bias: bs[0],
		Req:   tensor.NewRequant(0.01, 0),
		Image: kernels.NewFlashImage(ws, bs),
	}, nil
}

// flashSlack is the spare Flash every unit's device gets past its images.
const flashSlack = 64

// checkModules reports an error unless mws holds the weights of mods, in
// order.
func checkModules(mods []plan.Bottleneck, mws []*ModuleWeights) error {
	if len(mws) != len(mods) {
		return fmt.Errorf("graph: %d module weights for %d modules", len(mws), len(mods))
	}
	for i, mw := range mws {
		if mw == nil || mw.Cfg != mods[i] {
			return fmt.Errorf("graph: weights for module %d are not %s's", i, mods[i].Name)
		}
	}
	return nil
}
