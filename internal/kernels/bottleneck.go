package kernels

import (
	"fmt"
	"sync"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// Bottleneck is the fused inverted-bottleneck kernel of §5.2:
//
//	A --conv1x1(S1)--> B --dw RxS(S2)--> C --conv1x1(S3)--> D --(+A)--> E
//
// Tensors B, C and D never materialize: the kernel keeps a sliding window
// of R·S B-pixels plus one C-pixel and one D-pixel in a small RAM
// workspace (the paper's 11 segments for a 3×3 depthwise), streams output
// pixels of E into the pool, and frees A rows once the depthwise window
// and the residual add have passed them. The pointwise expansion is
// recomputed once per output row a B-pixel participates in (the price of
// the R·S-segment workspace, offset against TinyEngine's im2col traffic).
//
// Modeled work and host work differ for that recompute. The device is
// charged the paper's per-row recompute in full: every window cell loads
// its A pixel through the tagged pool path and pays conv1's Flash reads,
// MACs and requantize ops. The host computes each B pixel once per run:
// a conv1Memo keyed on the A bytes the load actually returned supplies the
// repeats. A clobbered A pixel reads back different bytes, misses the
// memo and is recomputed from what the device holds, so the output, the
// counters and the violation log are exactly those of recomputing every
// time, and no fault can be hidden.
//
// Weight layouts in Flash: W1 [Cmid][Cin], Wd [R][S][Cmid], W2 [Cout][Cmid].
type Bottleneck struct {
	Cfg        plan.Bottleneck
	Weights    BottleneckWeights
	w1, wd, w2 mcu.FlashRef
	b1, bd, b2 mcu.FlashRef
	loaded     bool

	conv1Computes int // B pixels the host has computed (misses of the conv1 memo)
}

// NewBottleneck packs the module weights into device Flash.
func NewBottleneck(dev *mcu.Device, cfg plan.Bottleneck, wt BottleneckWeights) (*Bottleneck, error) {
	im, err := BottleneckImage(cfg, wt)
	if err != nil {
		return nil, err
	}
	return LoadBottleneck(dev, cfg, wt, im)
}

// BottleneckImage checks the module's weight sizes and prebuilds its Flash
// image: W1, B1, Wd, Bd, W2, B2. The unfused executor loads the same
// image, so every policy of a module shares it.
func BottleneckImage(cfg plan.Bottleneck, wt BottleneckWeights) (*FlashImage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wantW1 := cfg.Cmid * cfg.Cin
	wantWd := cfg.R * cfg.S * cfg.Cmid
	wantW2 := cfg.Cout * cfg.Cmid
	if len(wt.W1) != wantW1 || len(wt.Wd) != wantWd || len(wt.W2) != wantW2 {
		return nil, fmt.Errorf("kernels: bottleneck %s weight sizes %d/%d/%d, want %d/%d/%d",
			cfg.Name, len(wt.W1), len(wt.Wd), len(wt.W2), wantW1, wantWd, wantW2)
	}
	if len(wt.B1) != cfg.Cmid || len(wt.Bd) != cfg.Cmid || len(wt.B2) != cfg.Cout {
		return nil, fmt.Errorf("kernels: bottleneck %s bias sizes %d/%d/%d, want %d/%d/%d",
			cfg.Name, len(wt.B1), len(wt.Bd), len(wt.B2), cfg.Cmid, cfg.Cmid, cfg.Cout)
	}
	return NewFlashImage([][]int8{wt.W1, wt.Wd, wt.W2}, [][]int32{wt.B1, wt.Bd, wt.B2}), nil
}

// LoadBottleneck copies im, a BottleneckImage of (cfg, wt), into device
// Flash in one copy and returns the fused kernel over it.
func LoadBottleneck(dev *mcu.Device, cfg plan.Bottleneck, wt BottleneckWeights, im *FlashImage) (*Bottleneck, error) {
	base, err := im.Load(dev)
	if err != nil {
		return nil, err
	}
	return &Bottleneck{Cfg: cfg, Weights: wt,
		w1: im.Part(base, 0), b1: im.Part(base, 1),
		wd: im.Part(base, 2), bd: im.Part(base, 3),
		w2: im.Part(base, 4), b2: im.Part(base, 5),
		loaded: true,
	}, nil
}

// Plan returns the §5.2 fused memory plan.
func (k *Bottleneck) Plan() plan.Plan { return plan.PlanBottleneckModule(k.Cfg) }

// Patch selects a spatial row slice of the module for patch-wise
// execution (the scheduler's split policy). All coordinates are global
// rows of the module's full planes.
type Patch struct {
	// OutRow0, OutRows select the output (E) rows to compute.
	OutRow0, OutRows int
	// InRow0, InRows describe which input (A) rows the input placement
	// holds; element 0 of the placement is row InRow0, column 0. The range
	// must cover plan.InputRows of the output range.
	InRow0, InRows int
	// OutRowBase is the global row of the output placement's element 0:
	// 0 when the placement covers the whole output plane (patches
	// re-joining into one activation), or OutRow0 for a standalone patch
	// tensor holding just the computed rows.
	OutRowBase int
}

// runSpan is the resolved geometry one kernel invocation covers.
type runSpan struct {
	outRow0, outRow1 int  // global E rows [outRow0, outRow1)
	inRow0, inRows   int  // global A rows resident in the input placement
	outRowBase       int  // global E row of the output placement's element 0
	freeInput        bool // stream-free consumed A rows (full runs only)
}

// Run executes the fused module over the whole plane. wsBase is the RAM
// address of the workspace region (outside the circular pool); it must
// provide Cfg.WorkspaceBytes() bytes.
func (k *Bottleneck) Run(c *intrin.Ctx, p plan.Plan, in Placement, wsBase int) (Placement, error) {
	cfg := k.Cfg
	if err := checkSize("bottleneck input", in.Bytes, cfg.H*cfg.W*cfg.Cin); err != nil {
		return Placement{}, err
	}
	_, _, _, _, h3, w3 := cfg.Grids()
	out := Placement{
		ID:    c.Dev.NewTensorID("bottleneck.out"),
		Off:   in.Off - p.GapBytes(),
		Bytes: h3 * w3 * cfg.Cout,
	}
	err := k.runCore(c, in, out, wsBase, runSpan{
		outRow0: 0, outRow1: h3, inRow0: 0, inRows: cfg.H, outRowBase: 0, freeInput: true,
	})
	if err != nil {
		return Placement{}, err
	}
	return out, nil
}

// RunPatch executes the fused kernel over one spatial patch: output rows
// [pt.OutRow0, pt.OutRow0+pt.OutRows) computed from an input placement
// holding only rows [pt.InRow0, pt.InRow0+pt.InRows). The caller owns both
// placements — the kernel does not free input rows (patch lifetimes are
// scheduled outside) and writes the output at out.Off plus the row offset
// relative to pt.OutRowBase. Residual modules are rejected: their skip add
// reads the whole input plane, which a patch placement does not hold.
func (k *Bottleneck) RunPatch(c *intrin.Ctx, in, out Placement, wsBase int, pt Patch) error {
	cfg := k.Cfg
	if cfg.Residual() {
		return fmt.Errorf("kernels: bottleneck %s is residual; patch execution unsupported", cfg.Name)
	}
	_, _, _, _, h3, w3 := cfg.Grids()
	if pt.OutRows <= 0 || pt.OutRow0 < 0 || pt.OutRow0+pt.OutRows > h3 {
		return fmt.Errorf("kernels: bottleneck %s patch rows [%d,%d) outside output plane of %d rows",
			cfg.Name, pt.OutRow0, pt.OutRow0+pt.OutRows, h3)
	}
	if pt.OutRowBase < 0 || pt.OutRowBase > pt.OutRow0 {
		// A base above OutRow0 would make the first row's element offset
		// negative and write below the output placement.
		return fmt.Errorf("kernels: bottleneck %s patch output base %d outside [0,%d]",
			cfg.Name, pt.OutRowBase, pt.OutRow0)
	}
	need := plan.InputRows(cfg, plan.RowRange{Lo: pt.OutRow0, Hi: pt.OutRow0 + pt.OutRows})
	have := plan.RowRange{Lo: pt.InRow0, Hi: pt.InRow0 + pt.InRows}
	if !have.Contains(need) {
		return fmt.Errorf("kernels: bottleneck %s patch input rows [%d,%d) do not cover required [%d,%d)",
			cfg.Name, have.Lo, have.Hi, need.Lo, need.Hi)
	}
	if err := checkSize("bottleneck patch input", in.Bytes, pt.InRows*cfg.W*cfg.Cin); err != nil {
		return err
	}
	if want := (pt.OutRow0 + pt.OutRows - pt.OutRowBase) * w3 * cfg.Cout; out.Bytes < want {
		return fmt.Errorf("kernels: bottleneck %s patch output %dB below required %dB", cfg.Name, out.Bytes, want)
	}
	return k.runCore(c, in, out, wsBase, runSpan{
		outRow0: pt.OutRow0, outRow1: pt.OutRow0 + pt.OutRows,
		inRow0: pt.InRow0, inRows: pt.InRows,
		outRowBase: pt.OutRowBase, freeInput: false,
	})
}

// runCore is the fused-kernel loop shared by Run and RunPatch. All spatial
// coordinates stay global (so padding clamps land only at the true plane
// boundaries); input reads are rebased to span.inRow0 and output writes to
// span.outRowBase.
func (k *Bottleneck) runCore(c *intrin.Ctx, in, out Placement, wsBase int, span runSpan) error {
	if !k.loaded {
		return fmt.Errorf("kernels: bottleneck %s not initialized via NewBottleneck", k.Cfg.Name)
	}
	cfg := k.Cfg
	h1, w1, h2, _, _, w3 := cfg.Grids()
	pad := cfg.Pad()
	residual := cfg.Residual()

	wsID := c.Dev.NewTensorID("bottleneck.ws")
	// Workspace layout: S column slots of R B-pixels, then the C pixel,
	// then the D pixel.
	colBytes := cfg.R * cfg.Cmid
	cOff := cfg.S * colBytes
	dOff := cOff + cfg.Cmid
	c.Dev.ClaimRegion(wsBase, cfg.WorkspaceBytes(), wsID, 0)
	defer c.Dev.FreeTagged(wsBase, cfg.WorkspaceBytes(), wsID)

	c.Dev.CountCalls(1)

	sc := scratchPool.Get().(*runScratch)
	defer sc.release()
	sc.size(cfg)

	// lastUseRow[h] = last output (E) row that still needs input row h
	// (stream-freeing of consumed rows; full runs only).
	lastUse := sc.lastUse
	for h := 0; h < cfg.H; h++ {
		last := -1
		if h%cfg.S1 == 0 {
			// Conv1 consumes row h for B row h/S1; the dw window reads B
			// row bh for C rows up to (bh+pad)/S2, i.e. E rows /S3.
			bh := h / cfg.S1
			p2 := (bh + pad) / cfg.S2
			if p2 > h2-1 {
				p2 = h2 - 1
			}
			last = p2 / cfg.S3
		}
		if residual && h > last {
			last = h // the add reads A row h at E row h
		}
		lastUse[h] = last
	}

	aBuf := sc.aBuf // residual A pixel
	bPix, cPix, dPix, ePix := sc.bPix, sc.cPix, sc.dPix, sc.ePix
	biasD, bias2 := sc.biasD, sc.bias2
	accD := sc.accD // depthwise accumulators, reset per C pixel
	conv1 := &sc.conv1
	conv1.init(k, c, in, span.inRow0)
	c.FlashLoadInt32(biasD, k.bd, 0)
	c.FlashLoadInt32(bias2, k.b2, 0)

	// Workspace pixels cross the device's byte API as views of the
	// kernel's int8 buffers. off is the pixel's byte offset in the
	// workspace, which is also its element index.
	storePix := func(off int, pix []int8) {
		c.Dev.WriteTagged(wsBase+off, intrin.AsBytes(pix), wsID, off)
	}
	loadPix := func(off int, pix []int8) {
		c.Dev.ReadTagged(wsBase+off, intrin.AsBytes(pix), wsID, off)
	}

	// computeBPixel evaluates conv1 for one window cell (row r of slot),
	// or writes zeros for padding cells.
	computeBPixel := func(slot, r, bh, bw int) {
		pixOff := slot*colBytes + r*cfg.Cmid
		if bh < 0 || bh >= h1 || bw < 0 || bw >= w1 {
			clear(bPix)
			storePix(pixOff, bPix)
			return
		}
		storePix(pixOff, conv1.pixel(bh, bw))
	}

	// ensureColumn brings window column bw at base row bh0 into its slot.
	// If the slot already holds the same column from an earlier base row,
	// the overlapping pixels are shifted down inside the workspace (cheap
	// copies) and only the newly exposed rows are recomputed — this keeps
	// the pointwise expansion at ~one compute per B pixel while the
	// workspace stays at the paper's R·S segments.
	cache := sc.cols
	for i := range cache {
		cache[i] = colMeta{bw: -1 << 30, bh0: -1 << 30}
	}
	shiftBuf := sc.shiftBuf
	ensureColumn := func(slot, bh0, bw int) {
		m := cache[slot]
		if m.bw == bw && m.bh0 == bh0 {
			return
		}
		fresh := 0 // rows [0, fresh) obtained by shifting
		if m.bw == bw && m.bh0 < bh0 && bh0-m.bh0 < cfg.R {
			d := bh0 - m.bh0
			for r := 0; r+d < cfg.R; r++ {
				src := wsBase + slot*colBytes + (r+d)*cfg.Cmid
				dst := wsBase + slot*colBytes + r*cfg.Cmid
				c.Dev.ReadTagged(src, shiftBuf, wsID, src-wsBase)
				c.Dev.WriteTagged(dst, shiftBuf, wsID, dst-wsBase)
			}
			fresh = cfg.R - d
		}
		for r := fresh; r < cfg.R; r++ {
			computeBPixel(slot, r, bh0+r, bw)
		}
		cache[slot] = colMeta{bw: bw, bh0: bh0}
	}

	freed := 0
	for p3 := span.outRow0; p3 < span.outRow1; p3++ {
		for q3 := 0; q3 < w3; q3++ {
			// The C pixel this E pixel consumes.
			p2, q2 := p3*cfg.S3, q3*cfg.S3
			bh0 := p2*cfg.S2 - pad
			// Ensure all S window columns are cached, sliding as q advances
			// and shifting rows as p advances.
			for s := 0; s < cfg.S; s++ {
				bw := q2*cfg.S2 - pad + s
				slot := ((bw % cfg.S) + cfg.S) % cfg.S
				ensureColumn(slot, bh0, bw)
			}
			// Depthwise: accumulate over the window from the workspace.
			c.RegReset(accD, 0)
			copy(accD, biasD)
			for r := 0; r < cfg.R; r++ {
				bh := bh0 + r
				if bh < 0 || bh >= h1 {
					continue
				}
				for s := 0; s < cfg.S; s++ {
					bw := q2*cfg.S2 - pad + s
					if bw < 0 || bw >= w1 {
						continue
					}
					slot := ((bw % cfg.S) + cfg.S) % cfg.S
					loadPix(slot*colBytes+r*cfg.Cmid, bPix)
					// The tap's weights are read in place; an
					// out-of-bounds view skips the tap, as FlashDot does.
					if w := c.FlashView(k.wd, (r*cfg.S+s)*cfg.Cmid, cfg.Cmid); w != nil {
						w, acc := w[:len(bPix)], accD[:len(bPix)]
						for cc, x := range bPix {
							acc[cc] += int32(x) * int32(int8(w[cc]))
						}
					}
					c.Dev.CountMACs(cfg.Cmid)
				}
			}
			for i := range cPix {
				cPix[i] = c.Requantize(accD[i], k.Weights.ReqD)
			}
			storePix(cOff, cPix)

			// Second pointwise: C pixel -> D pixel.
			loadPix(cOff, cPix)
			c.FlashMatVec(dPix, cPix, k.w2, 0, bias2, k.Weights.Req2)
			storePix(dOff, dPix)

			// Residual add with the corresponding A pixel, then store E.
			loadPix(dOff, dPix)
			if residual {
				elemA := ((p3-span.inRow0)*cfg.W + q3) * cfg.Cin
				c.RAMLoad(aBuf, in.Off+elemA, in.ID, elemA)
				for i := range ePix {
					ePix[i] = c.SatAddInt8(dPix[i], aBuf[i])
				}
			} else {
				copy(ePix, dPix)
			}
			elemE := ((p3-span.outRowBase)*w3 + q3) * cfg.Cout
			c.RAMStore(out.Off+elemE, ePix, out.ID, elemE)
		}
		if span.freeInput {
			// Free A rows whose last use has passed.
			for ; freed < cfg.H && lastUse[freed] <= p3; freed++ {
				c.RAMFree(in.Off+freed*cfg.W*cfg.Cin, cfg.W*cfg.Cin, in.ID)
			}
		}
	}
	if span.freeInput {
		for ; freed < cfg.H; freed++ {
			c.RAMFree(in.Off+freed*cfg.W*cfg.Cin, cfg.W*cfg.Cin, in.ID)
		}
	}
	return nil
}

// runScratch is the host memory of one fused-kernel run: the conv1 stage
// with its memo, and the buffers of the later stages. Runs take it from
// scratchPool. Its buffers grow to the largest module it has served, so a
// run allocates none of them, and concurrent runs each hold their own.
type runScratch struct {
	conv1                  conv1Stage
	lastUse                []int
	cols                   []colMeta
	aBuf                   []int8
	bPix, cPix, dPix, ePix []int8
	biasD, bias2, accD     []int32
	shiftBuf               []byte
}

// colMeta records which window column a workspace slot holds, and from
// which base row.
type colMeta struct{ bw, bh0 int }

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// size reslices every buffer for cfg, reallocating only the short ones.
func (sc *runScratch) size(cfg plan.Bottleneck) {
	sc.lastUse = resize(sc.lastUse, cfg.H)
	sc.cols = resize(sc.cols, cfg.S)
	sc.aBuf = resize(sc.aBuf, cfg.Cin)
	sc.bPix = resize(sc.bPix, cfg.Cmid)
	sc.cPix = resize(sc.cPix, cfg.Cmid)
	sc.dPix = resize(sc.dPix, cfg.Cout)
	sc.ePix = resize(sc.ePix, cfg.Cout)
	sc.biasD = resize(sc.biasD, cfg.Cmid)
	sc.bias2 = resize(sc.bias2, cfg.Cout)
	sc.accD = resize(sc.accD, cfg.Cmid)
	sc.shiftBuf = resize(sc.shiftBuf, cfg.Cmid)
}

// release drops the run's references and returns sc to the pool.
func (sc *runScratch) release() {
	sc.conv1.k, sc.conv1.c = nil, nil
	scratchPool.Put(sc)
}

// conv1Stage is one run's pointwise expansion A -> B. The device is
// charged the full conv1 for every window cell it fills; the host looks
// the result up in the run's conv1Memo and computes only on a miss.
type conv1Stage struct {
	k      *Bottleneck
	c      *intrin.Ctx
	in     Placement
	inRow0 int // global A row of the placement's element 0
	bias   []int32
	a, b   []int8 // the loaded A pixel and a computed B pixel
	memo   conv1Memo
}

// init readies s for a run of k reading A from in: it sizes the buffers,
// empties the memo and loads conv1's bias from Flash.
func (s *conv1Stage) init(k *Bottleneck, c *intrin.Ctx, in Placement, inRow0 int) {
	cfg := k.Cfg
	_, w1, _, _, _, _ := cfg.Grids()
	s.k, s.c, s.in, s.inRow0 = k, c, in, inRow0
	s.bias = resize(s.bias, cfg.Cmid)
	s.a = resize(s.a, cfg.Cin)
	s.b = resize(s.b, cfg.Cmid)
	s.memo.reset(cfg.R, w1, cfg.Cin, cfg.Cmid)
	c.FlashLoadInt32(s.bias, k.b1, 0)
}

// pixel returns in-plane B pixel (bh, bw). The tagged load of its A pixel
// always runs, with its shadow check, traffic and boundary check, and so
// does the full conv1 charge. The host arithmetic runs only when the memo
// holds no result for exactly the bytes just loaded; a result is kept
// only if computing it recorded no violation, so a faulty Flash read is
// recomputed, and reported, every time. The returned slice is valid until
// the next call.
func (s *conv1Stage) pixel(bh, bw int) []int8 {
	cfg, c := s.k.Cfg, s.c
	elem := ((bh*cfg.S1-s.inRow0)*cfg.W + bw*cfg.S1) * cfg.Cin
	c.RAMLoad(s.a, s.in.Off+elem, s.in.ID, elem)
	if b := s.memo.lookup(bh, bw, s.a); b != nil {
		c.ChargeFlashDotRows(s.k.w1, 0, cfg.Cin, cfg.Cmid)
		return b
	}
	_, before := c.Dev.Violations()
	c.FlashMatVec(s.b, s.a, s.k.w1, 0, s.bias, s.k.Weights.Req1)
	s.k.conv1Computes++
	if _, after := c.Dev.Violations(); after == before {
		s.memo.store(bh, bw, s.a, s.b)
	}
	return s.b
}
