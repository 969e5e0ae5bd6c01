package plan

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/ilp"
)

// Chain planning (the general multi-layer problem of §5.2, Eq. 2, for
// linear networks): a sequence of layers T0 → T1 → … → Tn where layer i
// consumes tensor T(i-1) and produces Ti in the same circular pool. Each
// per-layer plan contributes one difference constraint
//
//	off(T(i-1)) − off(Ti) ≥ GapBytes(i)
//
// and the minimal total footprint follows from the longest-path solution
// of the difference system — for a linear chain that is the running sum
// of gaps, but the solver handles any future non-linear extension and
// cross-validates the closed form.

// ChainPlan is the solved placement for a linear chain.
type ChainPlan struct {
	// Stages are the per-layer plans, in execution order.
	Stages []Plan
	// Offsets[i] is the pool byte offset of tensor Ti (Offsets[0] is the
	// chain input); later tensors sit at lower offsets, wrapping into the
	// circular pool when negative.
	Offsets []int
	// FootprintBytes is the peak pool requirement of the whole chain plus
	// the maximum per-stage workspace.
	FootprintBytes int
}

// PoolBytes is the pool capacity the unfused chain runner allocates: the
// whole chain footprint rounded up to the byte-wise pool granularity.
func (cp ChainPlan) PoolBytes() int {
	return ceilDiv(cp.FootprintBytes, bytePoolGran) * bytePoolGran
}

// PlanChain solves the placement of a linear chain from per-layer plans.
// Stage i's InBytes must equal stage i-1's OutBytes (a connectable chain).
func PlanChain(stages []Plan) (ChainPlan, error) {
	if len(stages) == 0 {
		return ChainPlan{}, fmt.Errorf("plan: empty chain")
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].InBytes != stages[i-1].OutBytes {
			return ChainPlan{}, fmt.Errorf("plan: chain stage %d input %dB != stage %d output %dB",
				i, stages[i].InBytes, i-1, stages[i-1].OutBytes)
		}
	}
	n := len(stages)
	// Difference system over tensor offsets v0..vn:
	// v(i-1) - v(i) >= gapBytes(i).
	sys := ilp.NewDiffSystem(n + 1)
	for i, st := range stages {
		sys.AddGE(i, i+1, int64(st.GapBytes()))
	}
	// Anchor the final output at 0 and derive every offset as the minimal
	// feasible distance above it: one longest-constraint-path pass from the
	// anchor reaches every tensor (Bellman-Ford, shared with the
	// whole-network scheduler in internal/netplan). A tensor unreached from
	// the anchor is an error — it would otherwise sit at offset 0 and
	// silently overlap the anchored output.
	dist, err := sys.AnchoredOffsets(n)
	if err != nil {
		return ChainPlan{}, fmt.Errorf("plan: chain offsets: %w", err)
	}
	offsets := make([]int, n+1)
	for i := 0; i <= n; i++ {
		offsets[i] = int(dist[i])
	}
	// Peak: every tensor's extent above the anchor, plus workspace.
	foot := 0
	ws := 0
	for i, st := range stages {
		if ext := offsets[i] + st.InBytes; ext > foot {
			foot = ext
		}
		if ext := offsets[i+1] + st.OutBytes; ext > foot {
			foot = ext
		}
		if st.WorkspaceBytes > ws {
			ws = st.WorkspaceBytes
		}
	}
	return ChainPlan{Stages: stages, Offsets: offsets, FootprintBytes: foot + ws}, nil
}

// PlanChainWithin solves the chain placement and verifies it fits a pool of
// capBytes, reporting an infeasible-pool error otherwise.
func PlanChainWithin(stages []Plan, capBytes int) (ChainPlan, error) {
	cp, err := PlanChain(stages)
	if err != nil {
		return ChainPlan{}, err
	}
	if cp.FootprintBytes > capBytes {
		return ChainPlan{}, fmt.Errorf("plan: chain needs %d bytes, pool has %d (infeasible)",
			cp.FootprintBytes, capBytes)
	}
	return cp, nil
}

// PointwiseWithSeg plans a 1×1 convolution with an explicit segment size,
// exposing the §5.3 trade-off: smaller segments track liveness more
// precisely but pay more modulo boundary checks; larger segments round the
// tensor rows up and waste the padding. The paper's default (min(C,K)) is
// the largest size with zero padding waste.
func PointwiseWithSeg(h, w, c, k, seg int) Plan {
	if h <= 0 || w <= 0 || c <= 0 || k <= 0 || seg <= 0 {
		panic(fmt.Sprintf("plan: pointwise dims must be positive (%d,%d,%d,%d,%d)", h, w, c, k, seg))
	}
	m := h * w
	kSegs := ceilDiv(c, seg)
	nSegs := ceilDiv(k, seg)
	gap := gemmGapSegs(m, kSegs, nSegs)
	return finalize(Plan{
		SegBytes: seg,
		InBytes:  m * kSegs * seg,
		OutBytes: m * nSegs * seg,
		GapSegs:  gap,
		Note:     fmt.Sprintf("pointwise H/W=%d,%d C=%d K=%d seg=%d (explicit)", h, w, c, k, seg),
	})
}

// chainSeg is the §5.3 segment rule tightened for per-layer chaining: the
// default min(C, K) wherever it pads neither side, else the largest
// zero-waste size, gcd(C, K) — the same rule the streamed seam kernels use
// (PlanSeam), for the same reason: a chained stage's output is the next
// stage's input at its raw tensor size, so segment padding would break the
// chain.
func chainSeg(c, k int) int {
	seg := minInt(c, k)
	if c%seg == 0 && k%seg == 0 {
		return seg
	}
	return gcdInt(c, k)
}

// UnfusedStages returns the three per-layer plans (conv1, depthwise,
// conv2) of a module if per-layer execution is supported: stride-1
// pointwise convs (the FC kernel walks pixels densely; residual modules
// are stride-1 by definition) and zero-padding segment sizes on every
// seam (chainSeg guarantees this whenever the channel counts share any
// common divisor, i.e. always).
//
// For a residual module the skip add pins the input A across the whole
// chain, so conv1's plan is widened to the disjoint gap (B wholly below
// A, which conv1 must not free) and the chain ends in an elementwise add
// writing E over D's storage — PlanChain's footprint then accounts A plus
// the materialized expansion, the RAM price per-layer execution pays to
// skip the fused kernel's per-row window recompute.
func UnfusedStages(cfg Bottleneck) ([]Plan, bool) {
	if cfg.S1 != 1 || cfg.S3 != 1 {
		return nil, false
	}
	h1, w1, h2, w2, _, _ := cfg.Grids()
	p1 := PointwiseWithSeg(cfg.H, cfg.W, cfg.Cin, cfg.Cmid, chainSeg(cfg.Cin, cfg.Cmid))
	pd := Depthwise(h1, w1, cfg.Cmid, cfg.R, cfg.S, cfg.S2, cfg.Pad())
	p2 := PointwiseWithSeg(h2, w2, cfg.Cmid, cfg.Cout, chainSeg(cfg.Cmid, cfg.Cout))
	a, bb, c, d, _ := cfg.TensorBytes()
	if p1.InBytes != a || p1.OutBytes != bb || pd.InBytes != bb ||
		pd.OutBytes != c || p2.InBytes != c || p2.OutBytes != d {
		return nil, false
	}
	if cfg.Residual() {
		p1 = WithGapSegs(p1, ceilDiv(p1.OutBytes, p1.SegBytes))
		p1.Note += " (residual: B disjoint from pinned A)"
	}
	return []Plan{p1, pd, p2}, true
}

// PointwiseModuloOps returns the number of circular-buffer boundary
// checks the pointwise kernel performs at segment size seg: one per
// segment load (each input segment is re-read once per output block of
// its row), store, and free — the latency side of the §5.3 trade-off.
func PointwiseModuloOps(h, w, c, k, seg int) int {
	m := h * w
	kSegs := ceilDiv(c, seg)
	nSegs := ceilDiv(k, seg)
	return m * (nSegs*kSegs + nSegs + kSegs)
}
