package plan

import "fmt"

// Spatial patch splitting (the MCUNetV2/Pex scheduling dimension): the
// leading modules of a backbone are partitioned along the output H axis
// into patches, and each patch's sub-chain runs end to end before the next
// patch starts. Only the current patch's input-row window (with the halo
// rows the R×S depthwise receptive field demands) and the current patch's
// intermediate rows occupy pool RAM at any moment; the final module's
// patch outputs re-join into one contiguous activation, which the first
// unsplit module consumes exactly like any other in-pool input.
//
// Halo rows are recomputed, not retained: each patch's sub-chain is
// independent, so a patch re-derives the boundary rows its receptive field
// shares with its neighbour. That costs MACs (reported as RecomputedRows)
// but keeps every intermediate patch tensor's lifetime confined to its own
// patch — the property that breaks the "network peak ≥ largest fused
// module footprint" bound of per-module scheduling.

// RowRange is a half-open range [Lo, Hi) of spatial rows.
type RowRange struct{ Lo, Hi int }

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.Hi - r.Lo }

// Contains reports whether r covers the whole of s.
func (r RowRange) Contains(s RowRange) bool { return r.Lo <= s.Lo && s.Hi <= r.Hi }

// InputRows returns the input rows (tensor A) module b must have resident
// to produce output rows out of tensor E, tracing the depthwise window's
// row reach back through the three convolutions' strides with the spatial
// padding clamped to real rows (exactly the trace PlanBottleneckModule's
// gap scan uses):
//
//	E row p ← C row p·S3 ← B rows p·S3·S2−pad … +R−1 ← A rows (…)·S1
func InputRows(b Bottleneck, out RowRange) RowRange {
	h1, _, _, _, h3, _ := b.Grids()
	pad := b.Pad()
	lo, hi := out.Lo, out.Hi
	if lo < 0 {
		lo = 0
	}
	if hi > h3 {
		hi = h3
	}
	if lo >= hi {
		return RowRange{}
	}
	bh0 := lo*b.S3*b.S2 - pad
	bh1 := (hi-1)*b.S3*b.S2 - pad + b.R - 1
	if bh0 < 0 {
		bh0 = 0
	}
	if bh1 > h1-1 {
		bh1 = h1 - 1
	}
	return RowRange{bh0 * b.S1, bh1*b.S1 + 1}
}

// Connectable reports whether module a's output shape equals module b's
// input shape, so the two can share one activation with no glue copy.
func Connectable(a, b Bottleneck) bool {
	_, _, _, _, h3, w3 := a.Grids()
	return a.Cout == b.Cin && h3 == b.H && w3 == b.W
}

// SplitSpec selects a patch-split region: a connectable prefix of modules
// and the number of spatial patches the final module's output rows are
// partitioned into.
type SplitSpec struct {
	Modules []Bottleneck
	Patches int
}

// CanSplit reports why a module prefix is ineligible for patch splitting,
// or nil. Residual modules are excluded (the skip add would need the whole
// input plane resident, defeating the split), and consecutive modules must
// chain shape-exactly (the intermediate patches carry straight through).
func CanSplit(modules []Bottleneck) error {
	if len(modules) == 0 {
		return fmt.Errorf("plan: split region has no modules")
	}
	for i, m := range modules {
		if err := m.Validate(); err != nil {
			return err
		}
		if m.Residual() {
			return fmt.Errorf("plan: split region module %s is residual (skip add needs the full plane)", m.Name)
		}
		if i > 0 && !Connectable(modules[i-1], m) {
			return fmt.Errorf("plan: split region modules %s and %s do not chain", modules[i-1].Name, m.Name)
		}
	}
	return nil
}

// PatchPlan is the solved row geometry of one patch's sub-chain.
type PatchPlan struct {
	// Rows[i] is the row range of sub-chain tensor Ti the patch touches:
	// Rows[0] is the module-0 input window (with halo), Rows[i] the output
	// rows of module i−1, and the final entry the patch's own partition
	// cell of the joined output (no halo).
	Rows []RowRange
}

// bytePoolGran is the byte-wise pool granularity of the patch executor
// and the unfused chain runner (both address the pool per pixel vector).
const bytePoolGran = 4

// SplitPlan is the solved memory plan of a patch-split region, mirroring
// exactly what graph.RunSplitRegion allocates so that plan-time
// feasibility implies run-time feasibility.
//
// Pool layout (logical byte offsets):
//
//	[0, JoinBytes)                     the joined final activation
//	[JoinBytes, +Side0Bytes)           ping-pong slot for even sub-chain tensors
//	[JoinBytes+Side0Bytes, +Side1Bytes) ping-pong slot for odd sub-chain tensors
//
// Each patch streams its input-row window into slot 0, runs module i
// reading slot i%2 and writing slot (i+1)%2 (the final module writes its
// rows of the join region instead), and frees each tensor as soon as the
// next module has consumed it. Consecutive tensors always sit in opposite
// slots, so no patch tensor ever overlaps one that is still live.
type SplitPlan struct {
	Spec    SplitSpec
	Patches []PatchPlan
	// RowBytes[i] is the byte size of one row of sub-chain tensor Ti.
	RowBytes []int
	// JoinBytes is the full final activation the patches re-join into.
	JoinBytes int
	// Side0Bytes and Side1Bytes size the two ping-pong scratch slots: the
	// maxima over patches of the even/odd sub-chain patch tensors.
	Side0Bytes, Side1Bytes int
	// WorkspaceBytes is the largest fused-kernel workspace in the region.
	WorkspaceBytes int
	// SegBytes is the executor's pool granularity.
	SegBytes int
	// FootprintBytes is the executable peak RAM of the region: the pool
	// (join + both slots, rounded to the granularity) plus the workspace.
	FootprintBytes int
	// RecomputedRows counts sub-chain tensor rows computed more than once
	// across patches — the halo-recompute overhead the split trades for RAM.
	RecomputedRows int
}

// SideOffset returns the pool offset of sub-chain tensor Ti's scratch
// slot. The final tensor (i = len(Spec.Modules)) lives in the join region
// at offset 0 instead.
func (sp *SplitPlan) SideOffset(i int) int {
	if i%2 == 0 {
		return sp.JoinBytes
	}
	return sp.JoinBytes + sp.Side0Bytes
}

// PatchBytes returns the byte size of patch j's sub-chain tensor Ti.
func (sp *SplitPlan) PatchBytes(i, j int) int {
	return sp.Patches[j].Rows[i].Len() * sp.RowBytes[i]
}

// PlanSplit solves the patch geometry and executable footprint of a split
// region. The final module's output rows are partitioned into
// spec.Patches balanced contiguous cells; every other row range follows by
// back-propagating InputRows through the sub-chain.
func PlanSplit(spec SplitSpec) (SplitPlan, error) {
	if err := CanSplit(spec.Modules); err != nil {
		return SplitPlan{}, err
	}
	k := len(spec.Modules)
	last := spec.Modules[k-1]
	_, _, _, _, h3, w3 := last.Grids()
	if spec.Patches < 2 || spec.Patches > h3 {
		return SplitPlan{}, fmt.Errorf("plan: split of %s into %d patches (want 2..%d output rows)",
			last.Name, spec.Patches, h3)
	}

	sp := SplitPlan{
		Spec:      spec,
		JoinBytes: h3 * w3 * last.Cout,
		SegBytes:  bytePoolGran,
	}
	// Row widths of the sub-chain tensors T0..Tk.
	sp.RowBytes = make([]int, k+1)
	sp.RowBytes[0] = spec.Modules[0].W * spec.Modules[0].Cin
	for i, m := range spec.Modules {
		_, _, _, _, _, w3i := m.Grids()
		sp.RowBytes[i+1] = w3i * m.Cout
		if ws := m.WorkspaceBytes(); ws > sp.WorkspaceBytes {
			sp.WorkspaceBytes = ws
		}
	}

	// Balanced partition of the final rows; back-propagate each cell.
	base, rem := h3/spec.Patches, h3%spec.Patches
	row := 0
	rowsComputed := make([]int, k+1)
	for j := 0; j < spec.Patches; j++ {
		n := base
		if j < rem {
			n++
		}
		pp := PatchPlan{Rows: make([]RowRange, k+1)}
		pp.Rows[k] = RowRange{row, row + n}
		row += n
		for i := k - 1; i >= 0; i-- {
			pp.Rows[i] = InputRows(spec.Modules[i], pp.Rows[i+1])
		}
		for i := 0; i <= k; i++ {
			rowsComputed[i] += pp.Rows[i].Len()
		}
		for i := 0; i < k; i++ {
			b := pp.Rows[i].Len() * sp.RowBytes[i]
			if i%2 == 0 && b > sp.Side0Bytes {
				sp.Side0Bytes = b
			}
			if i%2 == 1 && b > sp.Side1Bytes {
				sp.Side1Bytes = b
			}
		}
		sp.Patches = append(sp.Patches, pp)
	}
	// Recompute overhead: rows of T1..Tk-1 derived more than once, plus
	// input rows streamed in more than once (Tk rows partition exactly).
	for i := 0; i < k; i++ {
		full := sp.rowsOf(i)
		if extra := rowsComputed[i] - full; extra > 0 {
			sp.RecomputedRows += extra
		}
	}

	pool := sp.JoinBytes + sp.Side0Bytes + sp.Side1Bytes
	pool = ceilDiv(pool, sp.SegBytes) * sp.SegBytes
	sp.FootprintBytes = pool + sp.WorkspaceBytes
	return sp, nil
}

// PoolBytes is the circular-pool capacity the region executor allocates
// (FootprintBytes minus the out-of-pool workspace).
func (sp *SplitPlan) PoolBytes() int { return sp.FootprintBytes - sp.WorkspaceBytes }

// rowsOf returns the full row count of sub-chain tensor Ti.
func (sp *SplitPlan) rowsOf(i int) int {
	if i == 0 {
		return sp.Spec.Modules[0].H
	}
	_, _, _, _, h3, _ := sp.Spec.Modules[i-1].Grids()
	return h3
}
