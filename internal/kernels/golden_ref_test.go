package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Index-form golden references: one flat index expression per operand, as
// the golden layers were first written. golden.go restructures the loops
// for host speed; these stay as their independent oracle.

func refGoldenFC(in []int8, m, k, n int, w []int8, bias []int32, req tensor.Requant) []int8 {
	out := make([]int8, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			if bias != nil {
				acc = bias[j]
			}
			for kk := 0; kk < k; kk++ {
				acc += int32(in[i*k+kk]) * int32(w[j*k+kk])
			}
			out[i*n+j] = req.Apply(acc)
		}
	}
	return out
}

func refGoldenPointwise(in []int8, h, w, c, k, stride int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	oh, ow := ceil(h, stride), ceil(w, stride)
	out := make([]int8, oh*ow*k)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			base := (p*stride*w + q*stride) * c
			for n := 0; n < k; n++ {
				var acc int32
				if bias != nil {
					acc = bias[n]
				}
				for cc := 0; cc < c; cc++ {
					acc += int32(in[base+cc]) * int32(wt[n*c+cc])
				}
				out[(p*ow+q)*k+n] = req.Apply(acc)
			}
		}
	}
	return out
}

func refGoldenDepthwise(in []int8, h, w, c, r, s, stride, pad int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	out := make([]int8, oh*ow*c)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			for cc := 0; cc < c; cc++ {
				var acc int32
				if bias != nil {
					acc = bias[cc]
				}
				for rr := 0; rr < r; rr++ {
					ih := p*stride + rr - pad
					if ih < 0 || ih >= h {
						continue
					}
					for ss := 0; ss < s; ss++ {
						iw := q*stride + ss - pad
						if iw < 0 || iw >= w {
							continue
						}
						acc += int32(in[(ih*w+iw)*c+cc]) * int32(wt[(rr*s+ss)*c+cc])
					}
				}
				out[(p*ow+q)*c+cc] = req.Apply(acc)
			}
		}
	}
	return out
}

// TestGoldenMatchesIndexFormReference checks the golden layers byte for
// byte against the index-form references over random shapes: strides 1
// and 2, windows of 3, 5 and 7, odd channel counts, nil bias, and inputs
// drawn only from the int8 rails. A final sweep takes every input and
// output channel count 1–9, so the golden's four-channel blocks meet every
// remainder mod 4 on both sides, with and without bias.
func TestGoldenMatchesIndexFormReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rails := []int8{-128, -127, 127, 0}
	fill := func(n int, extreme bool) []int8 {
		if !extreme {
			return randInt8(rng, n)
		}
		out := make([]int8, n)
		for i := range out {
			out[i] = rails[rng.Intn(len(rails))]
		}
		return out
	}
	same := func(what string, got, want []int8) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d bytes, reference %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %d, reference %d", what, i, got[i], want[i])
			}
		}
	}
	windows := []int{3, 5, 7}
	scales := []float64{0.0005, 0.004, 0.03, 0.2}
	for iter := 0; iter < 150; iter++ {
		extreme := iter%3 == 0
		h, w := 1+rng.Intn(11), 1+rng.Intn(11)
		c, k := 1+rng.Intn(21), 1+rng.Intn(21)
		stride := 1 + rng.Intn(2)
		r, s := windows[rng.Intn(3)], windows[rng.Intn(3)]
		pad := rng.Intn((r+1)/2 + 1)
		rq := req(scales[rng.Intn(len(scales))])
		var biasC, biasK []int32
		if rng.Intn(3) != 0 {
			biasC, biasK = randInt32(rng, c, 1<<12), randInt32(rng, k, 1<<12)
		}
		in := fill(h*w*c, extreme)
		tag := fmt.Sprintf("iter %d (h=%d w=%d c=%d k=%d stride=%d r=%d s=%d pad=%d bias=%v extreme=%v)",
			iter, h, w, c, k, stride, r, s, pad, biasC != nil, extreme)

		wpw := fill(k*c, extreme)
		same("pointwise "+tag,
			GoldenPointwise(in, h, w, c, k, stride, wpw, biasK, rq),
			refGoldenPointwise(in, h, w, c, k, stride, wpw, biasK, rq))
		same("fc "+tag,
			GoldenFC(in, h*w, c, k, wpw, biasK, rq),
			refGoldenFC(in, h*w, c, k, wpw, biasK, rq))

		if h+2*pad < r || w+2*pad < s {
			continue // no output pixel fits the window
		}
		wdw := fill(r*s*c, extreme)
		same("depthwise "+tag,
			GoldenDepthwise(in, h, w, c, r, s, stride, pad, wdw, biasC, rq),
			refGoldenDepthwise(in, h, w, c, r, s, stride, pad, wdw, biasC, rq))
	}
	for c := 1; c <= 9; c++ {
		for k := 1; k <= 9; k++ {
			for _, withBias := range []bool{false, true} {
				extreme := (c+k)%2 == 0
				h, w := 3, 4
				rq := req(scales[(c+k)%len(scales)])
				var biasC, biasK []int32
				if withBias {
					biasC, biasK = randInt32(rng, c, 1<<12), randInt32(rng, k, 1<<12)
				}
				in, wpw, wdw := fill(h*w*c, extreme), fill(k*c, extreme), fill(9*c, extreme)
				tag := fmt.Sprintf("sweep c=%d k=%d bias=%v extreme=%v", c, k, withBias, extreme)
				same("pointwise "+tag,
					GoldenPointwise(in, h, w, c, k, 1, wpw, biasK, rq),
					refGoldenPointwise(in, h, w, c, k, 1, wpw, biasK, rq))
				same("fc "+tag,
					GoldenFC(in, h*w, c, k, wpw, biasK, rq),
					refGoldenFC(in, h*w, c, k, wpw, biasK, rq))
				same("depthwise "+tag,
					GoldenDepthwise(in, h, w, c, 3, 3, 1, 1, wdw, biasC, rq),
					refGoldenDepthwise(in, h, w, c, 3, 3, 1, 1, wdw, biasC, rq))
			}
		}
	}
}
