// Package plan implements the paper's segment-level memory planner (§4,
// §5.2, §5.3): given a layer or a fused multi-layer module, it selects the
// kernel-specific segment size, solves min (bIn − bOut) subject to the
// no-clobber constraint of Eq. (1)/(2), and reports the resulting peak RAM
// footprint. Offsets are exact; the affine vertex solver, the exhaustive
// lexicographic scan, and the branch-and-bound ILP all agree (tested).
package plan

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/affine"
)

// Plan is the solved memory plan for one kernel invocation.
type Plan struct {
	// SegBytes is the kernel-specific segment size chosen per §5.3.
	SegBytes int
	// InBytes and OutBytes are the input/output activation sizes.
	InBytes, OutBytes int
	// GapSegs is the solved offset bIn − bOut in segments: the number of
	// empty segments that must separate the output start pointer from the
	// input start pointer.
	GapSegs int
	// WorkspaceBytes is the fused-kernel intermediate storage
	// (0 for single layers; R·S + 1 + 1 segments for bottlenecks).
	WorkspaceBytes int
	// FootprintBytes is the peak RAM this kernel needs:
	// max(InBytes + GapSegs·SegBytes, OutBytes) + WorkspaceBytes.
	FootprintBytes int
	// Note describes how the plan was derived.
	Note string
}

// GapBytes returns the input/output pointer separation in bytes.
func (p Plan) GapBytes() int { return p.GapSegs * p.SegBytes }

// PoolBytes is the circular-pool capacity the kernel executor allocates:
// the activation span (FootprintBytes minus the out-of-pool workspace)
// rounded up to a whole number of segments. Pool plus workspace can
// exceed FootprintBytes by up to SegBytes−1 when the span is not
// segment-aligned.
func (p Plan) PoolBytes() int {
	return ceilDiv(p.FootprintBytes-p.WorkspaceBytes, p.SegBytes) * p.SegBytes
}

func (p Plan) String() string {
	return fmt.Sprintf("plan{seg=%dB in=%dB out=%dB gap=%dseg ws=%dB footprint=%dB}",
		p.SegBytes, p.InBytes, p.OutBytes, p.GapSegs, p.WorkspaceBytes, p.FootprintBytes)
}

// WithGapSegs returns p with its pointer gap replaced and the footprint
// recomputed. Schedulers use it to explore non-minimal placements, e.g. a
// disjoint TinyEngine-style fallback that never overlaps input and output.
func WithGapSegs(p Plan, gapSegs int) Plan {
	p.GapSegs = gapSegs
	return finalize(p)
}

// finalize computes the footprint from the solved quantities.
func finalize(p Plan) Plan {
	span := p.InBytes + p.GapSegs*p.SegBytes
	if p.OutBytes > span {
		span = p.OutBytes
	}
	p.FootprintBytes = span + p.WorkspaceBytes
	return p
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FC plans a fully connected layer In[M,K] × Weight[K,N] → Out[M,N]
// (int8 elements; weights in Flash are excluded, as in the paper).
// Segment size rule (§5.3): the minimum of the input and output row sizes.
func FC(m, k, n int) Plan {
	if m <= 0 || k <= 0 || n <= 0 {
		panic(fmt.Sprintf("plan: FC dims must be positive (%d,%d,%d)", m, k, n))
	}
	seg := minInt(k, n)
	kSegs := ceilDiv(k, seg)
	nSegs := ceilDiv(n, seg)
	gap := gemmGapSegs(m, kSegs, nSegs)
	return finalize(Plan{
		SegBytes: seg,
		InBytes:  m * kSegs * seg,
		OutBytes: m * nSegs * seg,
		GapSegs:  gap,
		Note:     fmt.Sprintf("FC M=%d K=%d N=%d (GEMM closed form)", m, k, n),
	})
}

// gemmGapSegs solves the paper's Figure 3 GEMM instance in segment units:
// read(m,n,k) = m·kSegs + k, write(m,n,k) = m·nSegs + n over the box
// (M, nSegs, kSegs). The result equals the closed form
// min(nSegs,kSegs) − 1 + max(nSegs−kSegs,0)·(M−1).
func gemmGapSegs(m, kSegs, nSegs int) int {
	box := affine.NewBox(int64(m), int64(nSegs), int64(kSegs))
	read := affine.Compose(affine.Vec{int64(kSegs), 1},
		affine.Access{A: affine.Mat{{1, 0, 0}, {0, 0, 1}}})
	write := affine.Compose(affine.Vec{int64(nSegs), 1},
		affine.Access{A: affine.Mat{{1, 0, 0}, {0, 1, 0}}})
	return int(affine.MaxWriteReadGap(write, read, box))
}

// Pointwise plans a 1×1 convolution over an H×W image with C input and K
// output channels — the workload of the paper's Figure 7/8 single-layer
// evaluation. It is the GEMM [H·W, C] × [C, K] with segment size
// min(C, K) (§5.3).
func Pointwise(h, w, c, k int) Plan {
	if h <= 0 || w <= 0 || c <= 0 || k <= 0 {
		panic(fmt.Sprintf("plan: pointwise dims must be positive (%d,%d,%d,%d)", h, w, c, k))
	}
	p := FC(h*w, c, k)
	p.Note = fmt.Sprintf("pointwise conv H/W=%d,%d C=%d K=%d", h, w, c, k)
	return p
}

// Conv2DSpec describes a dense 2-D convolution with NHWC activations.
type Conv2DSpec struct {
	H, W   int // input image size
	C, K   int // input/output channels
	R, S   int // kernel window
	Stride int
	Pad    int // symmetric spatial padding
}

// OutDims returns the output spatial size (P, Q).
func (s Conv2DSpec) OutDims() (int, int) {
	p := (s.H+2*s.Pad-s.R)/s.Stride + 1
	q := (s.W+2*s.Pad-s.S)/s.Stride + 1
	return p, q
}

// Validate reports a configuration error, if any.
func (s Conv2DSpec) Validate() error {
	if s.H <= 0 || s.W <= 0 || s.C <= 0 || s.K <= 0 || s.R <= 0 || s.S <= 0 || s.Stride <= 0 || s.Pad < 0 {
		return fmt.Errorf("plan: conv2d dims must be positive: %+v", s)
	}
	p, q := s.OutDims()
	if p <= 0 || q <= 0 {
		return fmt.Errorf("plan: conv2d output empty: %+v", s)
	}
	return nil
}

// Conv2D plans a general 2-D convolution. The offset is solved by an exact
// scan over output pixels in row-major order (ConvGapScanFull): at each
// step t the highest written segment so far must stay below every address
// read at t, with padding clamped to real rows/columns (the affine vertex
// bound would include phantom padded reads; the scan is exact).
func Conv2D(spec Conv2DSpec) Plan {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	seg := minInt(spec.C, spec.K)
	cSegs := ceilDiv(spec.C, seg)
	kSegs := ceilDiv(spec.K, seg)
	p, q := spec.OutDims()
	gap := ConvGapScanFull(spec)
	return finalize(Plan{
		SegBytes: seg,
		InBytes:  spec.H * spec.W * cSegs * seg,
		OutBytes: p * q * kSegs * seg,
		GapSegs:  gap,
		Note: fmt.Sprintf("conv2d %dx%dx%d k=%d %dx%d s%d p%d (pixel scan)",
			spec.H, spec.W, spec.C, spec.K, spec.R, spec.S, spec.Stride, spec.Pad),
	})
}

// Depthwise plans a depthwise convolution (C in = C out, per-channel).
// The same pixel scan applies with one segment per pixel; the result is
// near-in-place (a ~one-row guard), matching the paper's statement that
// segment planning reproduces TinyEngine's in-place depthwise behaviour.
func Depthwise(h, w, c, r, s, stride, pad int) Plan {
	spec := Conv2DSpec{H: h, W: w, C: c, K: c, R: r, S: s, Stride: stride, Pad: pad}
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	p, q := spec.OutDims()
	gap := 0
	for op := 0; op < p; op++ {
		for oq := 0; oq < q; oq++ {
			t := op*q + oq
			wMax := t // one segment per output pixel
			ih := maxInt(0, op*stride-pad)
			iw := maxInt(0, oq*stride-pad)
			rMin := ih*w + iw
			if g := wMax - rMin; g > gap {
				gap = g
			}
		}
	}
	return finalize(Plan{
		SegBytes: c,
		InBytes:  h * w * c,
		OutBytes: p * q * c,
		GapSegs:  gap,
		Note:     fmt.Sprintf("depthwise %dx%dx%d %dx%d s%d p%d", h, w, c, r, s, stride, pad),
	})
}

// ConvGapScanFull is the exhaustive oracle for Conv2D's two-column
// optimization: it scans every output pixel. Exported for tests.
func ConvGapScanFull(spec Conv2DSpec) int {
	seg := minInt(spec.C, spec.K)
	cSegs := ceilDiv(spec.C, seg)
	kSegs := ceilDiv(spec.K, seg)
	p, q := spec.OutDims()
	gap := 0
	for op := 0; op < p; op++ {
		for oq := 0; oq < q; oq++ {
			t := op*q + oq
			wMax := (t+1)*kSegs - 1
			ih := maxInt(0, op*spec.Stride-spec.Pad)
			iw := maxInt(0, oq*spec.Stride-spec.Pad)
			rMin := (ih*spec.W + iw) * cSegs
			if g := wMax - rMin; g > gap {
				gap = g
			}
		}
	}
	return gap
}
