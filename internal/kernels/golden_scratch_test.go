package kernels

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/vmcu-project/vmcu/internal/plan"
)

// FuzzGoldenScratchReuse runs a random sequence of bottleneck shapes
// through one reused GoldenScratch, growing and shrinking, residual and
// not. A step either chains on the previous output, reading one ping-pong
// buffer and writing the other, or restarts from a fresh input of a new
// shape. Every result must equal a fresh GoldenBottleneck, and the input
// must come back untouched. A stale accumulator or intermediate, a missed
// reslice or a write through an aliased buffer shows as a mismatch.
// Seeded pointwise steps check GoldenScratch.Pointwise the same way.
func FuzzGoldenScratchReuse(f *testing.F) {
	f.Add(int64(1), uint8(6))
	f.Add(int64(2), uint8(12))
	f.Add(int64(3), uint8(3))
	f.Add(int64(4), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		var g GoldenScratch
		var out [2][]int8
		slot := 0
		var in []int8
		var cfg plan.Bottleneck
		for step := 0; step < int(steps%24)+1; step++ {
			if in == nil || rng.Intn(3) == 0 {
				cfg = randomGoldenShape(rng, 1+rng.Intn(14), 1+rng.Intn(12))
				in = randInt8(rng, cfg.H*cfg.W*cfg.Cin)
			} else {
				_, _, _, _, h3, _ := cfg.Grids()
				cfg = randomGoldenShape(rng, h3, cfg.Cout)
			}
			saved := slices.Clone(in)
			if rng.Intn(4) == 0 {
				wt, bias := randInt8(rng, cfg.Cout*cfg.Cin), randInt32(rng, cfg.Cout, 1<<9)
				want := GoldenPointwise(in, cfg.H, cfg.W, cfg.Cin, cfg.Cout, cfg.S1, wt, bias, req(0.01))
				out[slot] = g.Pointwise(out[slot], in, cfg.H, cfg.W, cfg.Cin, cfg.Cout, cfg.S1, wt, bias, req(0.01))
				if !slices.Equal(out[slot], want) {
					t.Fatalf("step %d: reused pointwise %+v differs from a fresh one", step, cfg)
				}
				cfg = plan.Bottleneck{H: ceil(cfg.H, cfg.S1), W: ceil(cfg.W, cfg.S1), Cout: cfg.Cout,
					S1: 1, S2: 1, S3: 1}
			} else {
				residual := cfg.Residual() && rng.Intn(2) == 0
				wt := randomWeights(rng, cfg)
				want := GoldenBottleneck(in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
					cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, residual)
				out[slot] = g.Bottleneck(out[slot], in, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
					cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wt, residual)
				if !slices.Equal(out[slot], want) {
					t.Fatalf("step %d: reused golden of %+v (residual %v) differs from a fresh one", step, cfg, residual)
				}
			}
			if !slices.Equal(in, saved) {
				t.Fatalf("step %d: the golden wrote to its input", step)
			}
			in = out[slot]
			slot ^= 1
		}
	})
}

// randomGoldenShape draws a bottleneck of an hw×hw×cin input: odd square
// kernels up to 7, strides of 1 or 2, and an output channel count equal to
// cin half the time, so stride-1 shapes can be residual.
func randomGoldenShape(rng *rand.Rand, hw, cin int) plan.Bottleneck {
	stride := func() int {
		if rng.Intn(3) == 0 {
			return 2
		}
		return 1
	}
	k := 1 + 2*rng.Intn(4)
	cout := cin
	if rng.Intn(2) == 0 {
		cout = 1 + rng.Intn(12)
	}
	return plan.Bottleneck{H: hw, W: hw, Cin: cin, Cmid: 1 + rng.Intn(24), Cout: cout,
		R: k, S: k, S1: stride(), S2: stride(), S3: stride()}
}
