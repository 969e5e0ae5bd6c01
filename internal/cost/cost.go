// Package cost is the analytic latency/energy estimator: it predicts the
// exact operation counts (mcu.Stats) a scheduled execution unit will charge
// on the simulated device — without executing any kernel — and prices them
// through an mcu.Profile's cycle and energy model.
//
// The estimators are loop-structure replays: each one walks the same index
// space as its executor (the fused bottleneck kernel's output pixels, the
// FC kernel's segment tiles, the split region's patches, the seam kernel's
// strided reads) and accumulates the operation classes the intrinsics layer
// would charge, including the circular-pool boundary checks (one DivMod per
// byte-granular pool access) and the harness accounting of the graph
// executors (input placement, result extraction, streaming row frees). No
// data moves and no memory is simulated, so an estimate costs microseconds
// where an execution costs milliseconds — cheap enough for the scheduler to
// price every candidate plan of a Pareto search.
//
// Because the replays mirror the executors' control flow exactly, the
// estimates are bit-exact against the executed device counters for every
// policy (the test suite asserts equality, far inside the ±10% tolerance
// the validation contract states). The stated tolerance exists so that
// future kernel optimizations — e.g. a smarter column cache — only have to
// keep the model within the band, not in lockstep.
//
// The one modeled-but-never-executed unit is the disjoint handoff: the
// whole-network verifier holds both activations disjoint and does not run
// the elided glue op, so DisjointGlue returns the cost the glue would have
// (the same strided pointwise a seam kernel streams, when one exists, or a
// plain copy otherwise). Estimate keeps those counts in Glue, separate from
// Executed, so validation against executed counters stays exact while
// objective comparisons between handoff modes stay honest.
package cost

import (
	"fmt"
	"sync"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// Unit is one priced execution unit of an estimate.
type Unit struct {
	// Name identifies the unit, e.g. "B3(fused)", "B1+B2(split×8)",
	// "B5>B6 seam" or "B12>B13 glue".
	Name string
	// Kind is the unit's schedule role: "fused", "baseline", "unfused",
	// "split", "seam", or "glue".
	Kind string
	// Executed reports whether the whole-network verifier runs this unit
	// (false only for disjoint-handoff glue, which is modeled, not run).
	Executed bool
	// Stats are the predicted operation counts.
	Stats mcu.Stats
	// Cycles and EnergyJoules price Stats under the estimate's profile.
	Cycles       float64
	EnergyJoules float64
}

// Estimate is the priced prediction for a whole scheduled network.
type Estimate struct {
	// Profile names the mcu.Profile the estimate is priced under.
	Profile string
	// Units are the per-unit predictions, in the order the plan runs them.
	Units []Unit
	// Executed sums the units netplan.Run actually executes (modules, split
	// region, seam kernels) — the counts validated against device counters.
	Executed mcu.Stats
	// Glue sums the modeled disjoint-handoff glue ops the verifier elides.
	Glue mcu.Stats
	// Total is Executed + Glue: the cost of a real end-to-end inference,
	// the quantity objectives and serving deadlines are judged on.
	Total mcu.Stats
	// Cycles, LatencySeconds and EnergyJoules price Total.
	Cycles         float64
	LatencySeconds float64
	EnergyJoules   float64
	// ExecutedCycles and ExecutedEnergyJoules price Executed alone.
	ExecutedCycles       float64
	ExecutedEnergyJoules float64
}

// Assemble prices the units under the profile and sums the totals.
func Assemble(p mcu.Profile, units []Unit) *Estimate {
	e := &Estimate{Profile: p.Name, Units: units}
	for i := range e.Units {
		u := &e.Units[i]
		u.Cycles = u.Stats.Cycles(p)
		u.EnergyJoules = u.Stats.EnergyJoules(p)
		if u.Executed {
			e.Executed.Add(u.Stats)
		} else {
			e.Glue.Add(u.Stats)
		}
	}
	e.Total = e.Executed
	e.Total.Add(e.Glue)
	e.Cycles = e.Total.Cycles(p)
	e.LatencySeconds = e.Total.LatencySeconds(p)
	e.EnergyJoules = e.Total.EnergyJoules(p)
	e.ExecutedCycles = e.Executed.Cycles(p)
	e.ExecutedEnergyJoules = e.Executed.EnergyJoules(p)
	return e
}

// memoKey caches per-module replays: the same module estimate is requested
// once per Pareto candidate, and candidates share their unsplit tails.
type memoKey struct {
	cfg  plan.Bottleneck
	kind string
}

var memo sync.Map // memoKey -> mcu.Stats

func memoized(cfg plan.Bottleneck, kind string, f func() mcu.Stats) mcu.Stats {
	k := memoKey{cfg: cfg, kind: kind}
	if v, ok := memo.Load(k); ok {
		return v.(mcu.Stats)
	}
	st := f()
	memo.Store(k, st)
	return st
}

// --- Harness accounting shared by the graph executors. ---

// placeInput is kernels.PlaceInput: one pool write (WriteRawBytes) and one
// claim (ClaimBytes), each paying the circular boundary check.
func placeInput(st *mcu.Stats) { st.DivModOps += 2 }

// extract is kernels.Extract: one raw pool read.
func extract(st *mcu.Stats) { st.DivModOps++ }

// ramLoad is intrin.Ctx.RAMLoad of n bytes: boundary check, tagged read
// traffic, and the branch of the five-step kernel structure.
func ramLoad(st *mcu.Stats, n int) {
	st.DivModOps++
	st.RAMReadBytes += uint64(n)
	st.Branches++
}

// ramStore is intrin.Ctx.RAMStore of n bytes.
func ramStore(st *mcu.Stats, n int) {
	st.DivModOps++
	st.RAMWriteBytes += uint64(n)
	st.Branches++
}

// ramFree is intrin.Ctx.RAMFree (boundary check plus branch).
func ramFree(st *mcu.Stats) {
	st.DivModOps++
	st.Branches++
}

// FusedModule predicts graph.RunModuleWithPlan for one module: the fused
// §5.2 kernel over the whole plane, including the executor's input
// placement, streaming row frees, and result extraction. The counts are
// placement-independent, so PolicyFused and PolicyBaseline (the same
// kernel under a wider pointer gap) share this estimate.
func FusedModule(cfg plan.Bottleneck) mcu.Stats {
	return memoized(cfg, "fused", func() mcu.Stats {
		var st mcu.Stats
		placeInput(&st)
		_, _, _, _, h3, _ := cfg.Grids()
		fusedRunCore(cfg, 0, h3, true, &st)
		extract(&st)
		return st
	})
}

// fusedRunCore replays kernels.Bottleneck.runCore over output rows
// [outRow0, outRow1). full selects the whole-plane run (streaming input-row
// frees and the residual add when the module has one); patch runs
// (RunPatch) never free and are never residual.
func fusedRunCore(cfg plan.Bottleneck, outRow0, outRow1 int, full bool, st *mcu.Stats) {
	h1, w1, _, _, _, w3 := cfg.Grids()
	pad := cfg.Pad()
	residual := full && cfg.Residual()
	cin, cmid, cout := cfg.Cin, cfg.Cmid, cfg.Cout
	r, s := cfg.R, cfg.S

	st.Calls++
	// Bias vectors: three FlashLoadInt32 reads per kernel invocation.
	st.FlashReadBytes += uint64(4 * (cmid + cmid + cout))

	// computeBPixel: conv1 for one window cell, or a padding zero-fill.
	computeBPixel := func(bh, bw int) {
		if bh < 0 || bh >= h1 || bw < 0 || bw >= w1 {
			st.RAMWriteBytes += uint64(cmid)
			return
		}
		ramLoad(st, cin)
		st.FlashReadBytes += uint64(cin * cmid)
		st.MACs += uint64(cin * cmid)
		st.ALUOps += uint64(cin*cmid + 4*cmid)
		st.RAMWriteBytes += uint64(cmid)
	}

	// The S-slot column cache, replayed with the kernel's exact metadata so
	// shift reuse (same column, advanced base row) is counted when it fires.
	type colMeta struct{ bw, bh0 int }
	cache := make([]colMeta, s)
	for i := range cache {
		cache[i] = colMeta{bw: -1 << 30, bh0: -1 << 30}
	}
	ensureColumn := func(slot, bh0, bw int) {
		m := cache[slot]
		if m.bw == bw && m.bh0 == bh0 {
			return
		}
		fresh := 0
		if m.bw == bw && m.bh0 < bh0 && bh0-m.bh0 < r {
			shifted := r - (bh0 - m.bh0)
			st.RAMReadBytes += uint64(shifted * cmid)
			st.RAMWriteBytes += uint64(shifted * cmid)
			fresh = shifted
		}
		for rr := fresh; rr < r; rr++ {
			computeBPixel(bh0+rr, bw)
		}
		cache[slot] = colMeta{bw: bw, bh0: bh0}
	}

	// validCols[q3] is the depthwise window's in-plane column count at
	// output column q3 (rows are clamped per p3 below).
	validCols := make([]int, w3)
	for q3 := 0; q3 < w3; q3++ {
		n := 0
		for ss := 0; ss < s; ss++ {
			if bw := q3*cfg.S3*cfg.S2 - pad + ss; bw >= 0 && bw < w1 {
				n++
			}
		}
		validCols[q3] = n
	}

	for p3 := outRow0; p3 < outRow1; p3++ {
		bh0 := p3*cfg.S3*cfg.S2 - pad
		validRows := 0
		for rr := 0; rr < r; rr++ {
			if bh := bh0 + rr; bh >= 0 && bh < h1 {
				validRows++
			}
		}
		for q3 := 0; q3 < w3; q3++ {
			q2 := q3 * cfg.S3
			for ss := 0; ss < s; ss++ {
				bw := q2*cfg.S2 - pad + ss
				slot := ((bw % s) + s) % s
				ensureColumn(slot, bh0, bw)
			}
			// Depthwise over the cached window.
			st.ALUOps += uint64(cmid) // RegAlloc accumulators
			taps := validRows * validCols[q3]
			st.RAMReadBytes += uint64(taps * cmid)
			st.FlashReadBytes += uint64(taps * cmid)
			st.MACs += uint64(taps * cmid)
			st.ALUOps += uint64(4 * cmid)    // requantize C
			st.RAMWriteBytes += uint64(cmid) // store C into the workspace
			st.RAMReadBytes += uint64(cmid)  // read C back for conv2
			st.FlashReadBytes += uint64(cout * cmid)
			st.MACs += uint64(cout * cmid)
			st.ALUOps += uint64(cout*cmid + 4*cout)
			st.RAMWriteBytes += uint64(cout) // store D
			st.RAMReadBytes += uint64(cout)  // read D back
			if residual {
				ramLoad(st, cin)
				st.ALUOps += uint64(cout) // saturating adds
			}
			ramStore(st, cout) // stream E into the pool
		}
	}
	if full {
		for h := 0; h < cfg.H; h++ {
			ramFree(st)
		}
	}
}

// UnfusedEligible mirrors the unfused executor's preconditions: stride-1
// pointwise convs and per-layer segment layouts that chain with the raw
// tensor sizes (plan.UnfusedStages; residual modules qualify — they run
// the chain with a pinned input and an elementwise add tail).
func UnfusedEligible(cfg plan.Bottleneck) bool {
	_, ok := plan.UnfusedStages(cfg)
	return ok
}

// UnfusedModule predicts graph.RunModuleUnfused: the per-layer chain
// (pointwise, depthwise, pointwise) with Eq. (2) offsets, including the
// executor's placement and extraction. Returns an error for modules the
// unfused executor rejects.
func UnfusedModule(cfg plan.Bottleneck) (mcu.Stats, error) {
	stages, ok := plan.UnfusedStages(cfg)
	if !ok {
		return mcu.Stats{}, fmt.Errorf("cost: module %s is not unfused-eligible", cfg.Name)
	}
	return memoized(cfg, "unfused", func() mcu.Stats {
		var st mcu.Stats
		residual := cfg.Residual()
		placeInput(&st)
		h1, w1, h2, w2, _, _ := cfg.Grids()
		fcKernel(cfg.H*cfg.W, cfg.Cin, cfg.Cmid, stages[0].SegBytes, residual, &st)
		depthwiseKernel(h1, w1, cfg.Cmid, cfg.R, cfg.S, cfg.S2, cfg.Pad(), &st)
		fcKernel(h2*w2, cfg.Cmid, cfg.Cout, stages[2].SegBytes, false, &st)
		if residual {
			addKernel(stages[2].OutBytes, &st)
		}
		extract(&st)
		return st
	}), nil
}

// fcKernel replays kernels.FC (and Pointwise, its 1×1-conv wrapper) with
// bias at the chain's segment size, which divides both dims exactly for
// every unfused-eligible module. keepInput mirrors FC.KeepInput: no
// streaming input-row frees (a residual chain's conv1).
func fcKernel(m, k, n, seg int, keepInput bool, st *mcu.Stats) {
	kSegs, nSegs := k/seg, n/seg
	st.Calls++
	for mi := 0; mi < m; mi++ {
		for ns := 0; ns < nSegs; ns++ {
			st.ALUOps += uint64(seg)             // RegAlloc
			st.FlashReadBytes += uint64(4 * seg) // bias segment
			for ks := 0; ks < kSegs; ks++ {
				ramLoad(st, seg)
				st.FlashReadBytes += uint64(seg * seg)
				st.MACs += uint64(seg * seg)
				st.ALUOps += uint64(seg * seg)
			}
			st.ALUOps += uint64(4 * seg) // requantize
			ramStore(st, seg)
		}
		if !keepInput {
			for ks := 0; ks < kSegs; ks++ {
				ramFree(st)
			}
		}
	}
}

// addKernel replays kernels.Add over n bytes: the residual chain's
// elementwise tail, streaming 64-byte blocks over D's storage.
func addKernel(n int, st *mcu.Stats) {
	st.Calls++
	seg := n
	if seg > 64 {
		seg = 64
	}
	for off := 0; off < n; off += seg {
		blk := seg
		if n-off < blk {
			blk = n - off
		}
		ramLoad(st, blk)
		ramLoad(st, blk)
		st.ALUOps += uint64(blk) // saturating adds
		ramFree(st)
		ramFree(st)
		ramStore(st, blk)
	}
}

// depthwiseKernel replays kernels.Depthwise with bias.
func depthwiseKernel(h, w, c, r, s, stride, pad int, st *mcu.Stats) {
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	st.Calls++
	st.FlashReadBytes += uint64(4 * c) // bias, loaded once
	validCols := make([]int, ow)
	for oq := 0; oq < ow; oq++ {
		n := 0
		for ss := 0; ss < s; ss++ {
			if iw := oq*stride + ss - pad; iw >= 0 && iw < w {
				n++
			}
		}
		validCols[oq] = n
	}
	for op := 0; op < oh; op++ {
		validRows := 0
		for rr := 0; rr < r; rr++ {
			if ih := op*stride + rr - pad; ih >= 0 && ih < h {
				validRows++
			}
		}
		for oq := 0; oq < ow; oq++ {
			st.ALUOps += uint64(c) // RegAlloc
			taps := validRows * validCols[oq]
			for t := 0; t < taps; t++ {
				ramLoad(st, c)
			}
			st.FlashReadBytes += uint64(taps * c)
			st.MACs += uint64(taps * c)
			st.ALUOps += uint64(4 * c) // requantize
			ramStore(st, c)
		}
	}
	for ih := 0; ih < h; ih++ {
		ramFree(st)
	}
}

// SplitRegion predicts graph.RunSplitRegion for a solved patch-split plan:
// per patch, the input-window placement, each module's RunPatch invocation
// over the patch's global row span, and the consumed tensor's release, plus
// the final join extraction. Halo recompute is priced exactly — the
// overlapping rows replay through the same per-row loop as everything else.
func SplitRegion(sp plan.SplitPlan) mcu.Stats {
	var st mcu.Stats
	mods := sp.Spec.Modules
	k := len(mods)
	for _, pp := range sp.Patches {
		placeInput(&st)
		for i := 0; i < k; i++ {
			rows := pp.Rows[i+1]
			fusedRunCore(mods[i], rows.Lo, rows.Hi, false, &st)
			st.DivModOps++ // kernels.FreeAll on the consumed tensor
		}
	}
	extract(&st)
	return st
}

// SplitRegionFloor is the zero-recompute lower bound for a split region:
// each module replayed once over only the output rows some patch consumes
// (each patch's range clipped against the rows earlier patches already
// cover), with no patch overheads, frees, or harness accounting. The
// consumed-row set — not the full plane — is the right floor because
// patch-wise execution skips intermediate rows a strided consumer never
// reads, an elision the full-plane fused executor cannot perform. Any
// split execution of the same modules computes at least these rows at the
// same per-row cost, so its estimate can never fall below this floor (the
// fuzz harness asserts it across random chains).
func SplitRegionFloor(sp plan.SplitPlan) mcu.Stats {
	var st mcu.Stats
	for i, cfg := range sp.Spec.Modules {
		covered := -1 << 30
		for _, pp := range sp.Patches {
			rows := pp.Rows[i+1]
			lo := rows.Lo
			if lo < covered {
				lo = covered
			}
			if lo < rows.Hi {
				fusedRunCore(cfg, lo, rows.Hi, false, &st)
			}
			if rows.Hi > covered {
				covered = rows.Hi
			}
		}
	}
	return st
}

// Seam predicts graph.RunSeam for one streamed handoff: the strided
// pointwise glue kernel with bias, including placement and extraction.
func Seam(spec plan.SeamSpec) mcu.Stats {
	var st mcu.Stats
	placeInput(&st)
	seamKernel(spec, &st)
	extract(&st)
	return st
}

// seamKernel replays kernels.Seam.Run.
func seamKernel(spec plan.SeamSpec, st *mcu.Stats) {
	oh, ow := spec.OutDims()
	st.Calls++
	st.FlashReadBytes += uint64(4 * spec.Cout) // bias
	pixels := oh * ow
	for t := 0; t < pixels; t++ {
		ramLoad(st, spec.Cin)
		st.ALUOps += uint64(spec.Cout) // RegAlloc
		st.FlashReadBytes += uint64(spec.Cout * spec.Cin)
		st.MACs += uint64(spec.Cout * spec.Cin)
		st.ALUOps += uint64(spec.Cout*spec.Cin + 4*spec.Cout)
		ramStore(st, spec.Cout)
	}
	for h := 0; h < spec.H; h++ {
		ramFree(st)
	}
}

// DisjointGlue models the elided glue op of a disjoint handoff — the unit
// the whole-network verifier never executes. Where the boundary is
// expressible as a strided pointwise (a seam spec exists) the glue costs
// exactly what the seam kernel would, since the arithmetic is placement-
// independent; otherwise it is modeled as a one-call copy of the producer
// activation into the consumer activation.
func DisjointGlue(spec *plan.SeamSpec, producerBytes, consumerBytes int) mcu.Stats {
	if spec != nil {
		var st mcu.Stats
		placeInput(&st)
		seamKernel(*spec, &st)
		extract(&st)
		return st
	}
	return mcu.Stats{
		Calls:         1,
		RAMReadBytes:  uint64(producerBytes),
		RAMWriteBytes: uint64(consumerBytes),
	}
}
