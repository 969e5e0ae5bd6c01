package kernels

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Golden reference implementations: plain Go, unconstrained memory, used
// to verify the pool kernels bit-exactly. Layouts match the kernels:
// activations NHWC (row-major H, W, C), FC/pointwise weights [N][K]
// (output-major, CMSIS convention), conv weights [K][R][S][C], depthwise
// weights [R][S][C]. The FC, pointwise and depthwise loops walk resliced
// rows so the compiler drops per-element bounds checks;
// golden_ref_test.go keeps the index-form loops they are checked against.

// GoldenFC computes Out[M,N] = requant(In[M,K]·Wᵀ + bias).
func GoldenFC(in []int8, m, k, n int, w []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != m*k || len(w) != n*k || (bias != nil && len(bias) != n) {
		panic(fmt.Sprintf("golden: FC size mismatch in=%d w=%d bias=%d", len(in), len(w), len(bias)))
	}
	out := make([]int8, m*n)
	for i := 0; i < m; i++ {
		goldenPixel(out[i*n:(i+1)*n], in[i*k:(i+1)*k], w, bias, req)
	}
	return out
}

// GoldenPointwise computes a 1×1 convolution with spatial stride:
// Out[p,q,n] = requant(Σ_c In[p·stride, q·stride, c]·W[n][c] + bias[n]).
func GoldenPointwise(in []int8, h, w, c, k, stride int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	return goldenPointwise(nil, in, h, w, c, k, stride, wt, bias, req)
}

// goldenPointwise is GoldenPointwise computed into dst's array when it
// has the capacity (see GoldenScratch).
func goldenPointwise(dst, in []int8, h, w, c, k, stride int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != h*w*c || len(wt) != k*c || (bias != nil && len(bias) != k) {
		panic("golden: pointwise size mismatch")
	}
	oh, ow := ceil(h, stride), ceil(w, stride)
	out := resize(dst, oh*ow*k)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			base := (p*stride*w + q*stride) * c
			pix := (p*ow + q) * k
			goldenPixel(out[pix:pix+k], in[base:base+c], wt, bias, req)
		}
	}
	return out
}

// goldenPixel computes one output row of a matrix-vector product,
// out[j] = requant(in·w[j] + bias[j]), with w laid out [len(out)][len(in)].
// It computes four output channels per pass over in, then the remainder
// one at a time.
func goldenPixel(out, in, w []int8, bias []int32, req tensor.Requant) {
	n := len(in)
	var b [4]int32
	j := 0
	for ; j+4 <= len(out); j += 4 {
		if bias != nil {
			b = [4]int32(bias[j : j+4])
		}
		r0, r1, r2, r3 := w[j*n:][:n], w[(j+1)*n:][:n], w[(j+2)*n:][:n], w[(j+3)*n:][:n]
		acc0, acc1, acc2, acc3 := b[0], b[1], b[2], b[3]
		for i, x := range in {
			v := int32(x)
			acc0 += v * int32(r0[i])
			acc1 += v * int32(r1[i])
			acc2 += v * int32(r2[i])
			acc3 += v * int32(r3[i])
		}
		out[j], out[j+1], out[j+2], out[j+3] = req.Apply(acc0), req.Apply(acc1), req.Apply(acc2), req.Apply(acc3)
	}
	for ; j < len(out); j++ {
		var acc int32
		if bias != nil {
			acc = bias[j]
		}
		row := w[j*n:][:n]
		for i, x := range in {
			acc += int32(x) * int32(row[i])
		}
		out[j] = req.Apply(acc)
	}
}

// GoldenConv2D computes a dense convolution with zero padding:
// weights laid out [K][R][S][C].
func GoldenConv2D(in []int8, h, w, c, k, r, s, stride, pad int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != h*w*c || len(wt) != k*r*s*c {
		panic("golden: conv2d size mismatch")
	}
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	out := make([]int8, oh*ow*k)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			for n := 0; n < k; n++ {
				var acc int32
				if bias != nil {
					acc = bias[n]
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
						for cc := 0; cc < c; cc++ {
							acc += int32(in[(ih*w+iw)*c+cc]) * int32(wt[((n*r+rr)*s+ss)*c+cc])
						}
					}
				}
				out[(p*ow+q)*k+n] = req.Apply(acc)
			}
		}
	}
	return out
}

// GoldenDepthwise computes a depthwise convolution with zero padding:
// weights laid out [R][S][C].
func GoldenDepthwise(in []int8, h, w, c, r, s, stride, pad int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	var g GoldenScratch
	return g.depthwise(nil, in, h, w, c, r, s, stride, pad, wt, bias, req)
}

// depthwise is GoldenDepthwise computed into dst's array when it has the
// capacity, with g's accumulators.
func (g *GoldenScratch) depthwise(dst, in []int8, h, w, c, r, s, stride, pad int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != h*w*c || len(wt) != r*s*c || (bias != nil && len(bias) != c) {
		panic("golden: depthwise size mismatch")
	}
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	out := resize(dst, oh*ow*c)
	g.acc = resize(g.acc, c)
	depthwiseLoop(out, g.acc, in, h, w, r, s, stride, pad, oh, ow, wt, bias, req)
	return out
}

// depthwiseLoop computes the oh×ow×len(acc) depthwise output into out.
// Channels are the innermost loop, unrolled by four: each window tap adds
// one input pixel times one weight row into a row of per-channel
// accumulators. It is kept apart from depthwise: compiled into one
// function with the buffer handling, the loop ran ~10% slower on amd64.
func depthwiseLoop(out []int8, acc []int32, in []int8, h, w, r, s, stride, pad, oh, ow int, wt []int8, bias []int32, req tensor.Requant) {
	c := len(acc)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			if bias != nil {
				copy(acc, bias)
			} else {
				clear(acc)
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
					px := in[(ih*w+iw)*c:][:len(acc)]
					wr := wt[(rr*s+ss)*c:][:len(acc)]
					cc := 0
					for ; cc+4 <= len(acc); cc += 4 {
						a4, x4, w4 := acc[cc:cc+4:cc+4], px[cc:cc+4:cc+4], wr[cc:cc+4:cc+4]
						a4[0] += int32(x4[0]) * int32(w4[0])
						a4[1] += int32(x4[1]) * int32(w4[1])
						a4[2] += int32(x4[2]) * int32(w4[2])
						a4[3] += int32(x4[3]) * int32(w4[3])
					}
					for ; cc < len(acc); cc++ {
						acc[cc] += int32(px[cc]) * int32(wr[cc])
					}
				}
			}
			o := out[(p*ow+q)*c:][:len(acc)]
			for cc, a := range acc {
				o[cc] = req.Apply(a)
			}
		}
	}
}

// GoldenAddSat computes the saturating elementwise int8 add used by
// residual connections.
func GoldenAddSat(a, b []int8) []int8 {
	out := make([]int8, len(a))
	addSat(out, a, b)
	return out
}

// addSat sets out[i] to the saturating sum a[i]+b[i]. out may be a.
func addSat(out, a, b []int8) {
	if len(a) != len(b) || len(out) != len(a) {
		panic("golden: add size mismatch")
	}
	for i := range out {
		out[i] = tensor.SaturateInt8(int32(a[i]) + int32(b[i]))
	}
}

// BottleneckWeights bundles the three layers' parameters for the fused
// module: conv1 [Cmid][Cin], depthwise [R][S][Cmid], conv2 [Cout][Cmid].
type BottleneckWeights struct {
	W1 []int8
	B1 []int32
	Wd []int8
	Bd []int32
	W2 []int8
	B2 []int32
	// Per-layer output requantization.
	Req1, ReqD, Req2 tensor.Requant
}

// GoldenBottleneck composes the golden layers into the inverted
// bottleneck: conv1×1(S1) → dw(S2) → conv1×1(S3) → optional residual add.
func GoldenBottleneck(in []int8, h, w, cin, cmid, cout, r, s, s1, s2, s3 int, wt BottleneckWeights, residual bool) []int8 {
	var g GoldenScratch
	return g.Bottleneck(nil, in, h, w, cin, cmid, cout, r, s, s1, s2, s3, wt, residual)
}

// GoldenScratch is caller-owned memory for the golden references: the
// bottleneck's two intermediate tensors and the depthwise accumulators.
// Its methods compute exactly what GoldenBottleneck and GoldenPointwise
// return, into an output array the caller passes as dst: the result
// reuses dst's array when cap(dst) suffices (dst's contents are ignored),
// and is otherwise freshly allocated, like append. Every buffer grows to
// the largest shape it has served, so a verifier that keeps one scratch
// and its outputs allocates nothing once they have grown. dst must not
// overlap in. The zero value is ready to use; a GoldenScratch serves one
// goroutine at a time.
type GoldenScratch struct {
	b, c []int8  // the bottleneck's conv1 and depthwise outputs
	acc  []int32 // depthwise per-channel accumulators
}

// Bottleneck is GoldenBottleneck computed into dst (see GoldenScratch).
func (g *GoldenScratch) Bottleneck(dst, in []int8, h, w, cin, cmid, cout, r, s, s1, s2, s3 int, wt BottleneckWeights, residual bool) []int8 {
	pad := (r - 1) / 2
	g.b = goldenPointwise(g.b, in, h, w, cin, cmid, s1, wt.W1, wt.B1, wt.Req1)
	h1, w1 := ceil(h, s1), ceil(w, s1)
	g.c = g.depthwise(g.c, g.b, h1, w1, cmid, r, s, s2, pad, wt.Wd, wt.Bd, wt.ReqD)
	h2, w2 := ceil(h1, s2), ceil(w1, s2)
	d := goldenPointwise(dst, g.c, h2, w2, cmid, cout, s3, wt.W2, wt.B2, wt.Req2)
	if residual {
		addSat(d, d, in)
	}
	return d
}

// Pointwise is GoldenPointwise computed into dst (see GoldenScratch).
func (g *GoldenScratch) Pointwise(dst, in []int8, h, w, c, k, stride int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	return goldenPointwise(dst, in, h, w, c, k, stride, wt, bias, req)
}

func ceil(a, b int) int { return (a + b - 1) / b }
