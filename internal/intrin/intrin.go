// Package intrin implements the paper's kernel-programming intrinsics
// (§6.1): RegAlloc, RAMLoad, FlashLoad, Dot, RAMStore, RAMFree, and
// Broadcast, executed against the simulated MCU with exact operation
// accounting. RAMLoad/RAMStore include the circular-buffer boundary check
// (a modulo, charged by the pool) and a branch; Dot is the fixed-size
// 2×2×16 int8 matrix multiply that lowers to SXTB16/SMLAD sequences on ARM.
//
// The host computes every dot product as the plain int32 sum of int8
// products. That is bit-identical to the SXTB16/ROR/SMLAD sequence
// (mcu.DotInt8x4): each product fits an int16 lane, and int32 addition
// wraps the same way in any order. The sequence still defines the charged
// cost, one MAC and one widening ALU op per element, and it is the oracle
// the tests check the intrinsics against. FlashDot charges and computes
// one weight row per call; FlashMatVec charges a whole output pixel's rows
// at once and computes them four rows per pass over the activations. The
// charge is the same either way, and so are the results.
package intrin

import (
	"fmt"
	"unsafe"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Ctx bundles the device and the segment pool a kernel executes against.
type Ctx struct {
	Dev  *mcu.Device
	Pool *seg.Pool
}

// NewCtx creates a kernel execution context.
func NewCtx(dev *mcu.Device, pool *seg.Pool) *Ctx {
	return &Ctx{Dev: dev, Pool: pool}
}

// AsBytes views s as bytes: the same backing array and length, since int8
// and byte share size and layout, so a write through either slice is
// visible through the other. It is how int8 activations and weights
// cross the device's byte API without a copy. The device copies the bytes
// in or out during the call and never keeps the view. A nil s yields nil.
func AsBytes(s []int8) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// RegAlloc allocates a register-file accumulator array of n int32 lanes
// initialized to v, charging the zeroing/mov ALU ops.
func (c *Ctx) RegAlloc(n int, v int32) []int32 {
	r := make([]int32, n)
	c.RegReset(r, v)
	return r
}

// RegReset re-initializes the accumulator registers r to v, charging
// exactly what RegAlloc(len(r), v) charges. A kernel allocates its
// accumulators once per run and resets them for every output pixel, so
// the pixel loop does not touch the host heap.
func (c *Ctx) RegReset(r []int32, v int32) {
	c.Dev.CountALU(len(r))
	for i := range r {
		r[i] = v
	}
}

// RAMLoad loads n bytes of tensor owner at logical pool byte offset off
// (element offset elem0 within the tensor) into dst as int8. The access
// pays the circular boundary check (modulo + branch) plus the RAM traffic.
func (c *Ctx) RAMLoad(dst []int8, off int, owner mcu.TensorID, elem0 int) {
	c.Pool.LoadBytes(off, AsBytes(dst), owner, elem0)
	c.Dev.CountBranches(1)
}

// RAMStore writes src (int8) to logical pool byte offset off, claiming the
// bytes for tensor owner at element offset elem0.
func (c *Ctx) RAMStore(off int, src []int8, owner mcu.TensorID, elem0 int) {
	c.Pool.StoreBytes(off, AsBytes(src), owner, elem0)
	c.Dev.CountBranches(1)
}

// RAMFree releases n bytes of tensor owner at logical pool byte offset off.
func (c *Ctx) RAMFree(off, n int, owner mcu.TensorID) {
	c.Pool.FreeBytes(off, n, owner)
	c.Dev.CountBranches(1)
}

// flashView checks that [off, off+n) lies inside blob ref and returns those
// Flash bytes, charging their read traffic. It is nil when the device
// recorded an out-of-bounds violation instead.
func (c *Ctx) flashView(op string, ref mcu.FlashRef, off, n int) []byte {
	if off < 0 || off+n > ref.Len {
		panic(fmt.Sprintf("intrin: %s [%d,%d) outside blob of %d bytes", op, off, off+n, ref.Len))
	}
	return c.Dev.FlashView(ref.Off+off, n)
}

// FlashLoad reads n int8 weights from Flash at ref.Off+off into dst.
func (c *Ctx) FlashLoad(dst []int8, ref mcu.FlashRef, off int) {
	copy(AsBytes(dst), c.flashView("flash load", ref, off, len(dst)))
}

// FlashView returns the n weight bytes at ref.Off+off in place, charging
// exactly what FlashLoad of n weights charges. Callers read the bytes as
// int8 and must not write through the view. It is nil after an
// out-of-bounds device read, which the device records as a violation; a
// kernel then skips the accumulation, as FlashDot does.
func (c *Ctx) FlashView(ref mcu.FlashRef, off, n int) []byte {
	return c.flashView("flash view", ref, off, n)
}

// FlashLoadInt32 reads n little-endian int32 values (bias vectors) from
// Flash at ref.Off + 4*off.
func (c *Ctx) FlashLoadInt32(dst []int32, ref mcu.FlashRef, off int) {
	buf := c.flashView("flash load32", ref, 4*off, 4*len(dst))
	for i := range dst[:len(buf)/4] {
		b := buf[4*i : 4*i+4]
		dst[i] = int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	}
}

// Broadcast splats a 16-bit constant across both SIMD lanes (PKHBT).
func (c *Ctx) Broadcast(v int16) uint32 {
	c.Dev.CountALU(1)
	return mcu.Broadcast16(v)
}

// DotVec accumulates the int8 dot product of a and b into *acc, charging
// the packed SXTB16/SMLAD sequence's cost.
func (c *Ctx) DotVec(a, b []int8, acc *int32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("intrin: dot of mismatched lengths %d, %d", len(a), len(b)))
	}
	*acc = dot(*acc, a, b)
	c.chargeDot(len(a))
}

// FlashDot accumulates the dot product of a with the len(a) int8 weights
// at ref.Off+off into *acc, reading them in place in Flash. It charges
// exactly what FlashLoad followed by DotVec does: len(a) Flash bytes, MACs
// and ALU ops. After an out-of-bounds device read, which the device
// records as a violation, *acc is left unchanged.
func (c *Ctx) FlashDot(a []int8, ref mcu.FlashRef, off int, acc *int32) {
	if w := c.flashView("flash dot", ref, off, len(a)); w != nil {
		*acc = dot(*acc, a, w)
	}
	c.chargeDot(len(a))
}

// ChargeFlashDotRows charges exactly what rows calls FlashDot(a, ref,
// off+i·n, &acc) with len(a) = n, each followed by one Requantize, charge:
// the Flash traffic of every weight row (or, for a row past the device's
// Flash, its OutOfBounds violation), n MACs and n ALU ops per row, and the
// requantize ALU ops. A kernel that already holds the rows' int8 results
// calls it instead of FlashMatVec, so the device is billed for the work it
// models while the host skips the arithmetic.
func (c *Ctx) ChargeFlashDotRows(ref mcu.FlashRef, off, n, rows int) {
	if c.flashRows("flash dot rows", ref, off, n, rows) == nil {
		for i := 0; i < rows; i++ {
			c.Dev.FlashView(ref.Off+off+i*n, n)
		}
	}
}

// FlashMatVec sets out[j] = Requantize(bias[j] + a·W[j]) for the len(out)
// weight rows W[j], the len(a) int8 weights at ref.Off+off+j·len(a). It
// charges exactly what len(out) calls of FlashDot followed by Requantize
// charge, and leaves the same violations: when the rows run past the
// device's Flash it reads them row by row, so each row past the end
// records its own OutOfBounds violation and is left at its bias. Inside
// Flash it reads all rows through one view and computes four rows per pass
// over a.
func (c *Ctx) FlashMatVec(out, a []int8, ref mcu.FlashRef, off int, bias []int32, req tensor.Requant) {
	if len(bias) != len(out) {
		panic(fmt.Sprintf("intrin: mat-vec of %d rows with %d biases", len(out), len(bias)))
	}
	n := len(a)
	w := c.flashRows("flash mat-vec", ref, off, n, len(out))
	if w == nil {
		for j := range out {
			acc := bias[j]
			if wj := c.Dev.FlashView(ref.Off+off+j*n, n); wj != nil {
				acc = dot(acc, a, wj)
			}
			out[j] = req.Apply(acc)
		}
		return
	}
	j := 0
	for ; j+4 <= len(out); j += 4 {
		w0 := w[j*n:][:n]
		w1 := w[(j+1)*n:][:n]
		w2 := w[(j+2)*n:][:n]
		w3 := w[(j+3)*n:][:n]
		acc0, acc1, acc2, acc3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
		for i, x := range a {
			v := int32(x)
			acc0 += v * int32(int8(w0[i]))
			acc1 += v * int32(int8(w1[i]))
			acc2 += v * int32(int8(w2[i]))
			acc3 += v * int32(int8(w3[i]))
		}
		out[j] = req.Apply(acc0)
		out[j+1] = req.Apply(acc1)
		out[j+2] = req.Apply(acc2)
		out[j+3] = req.Apply(acc3)
	}
	for ; j < len(out); j++ {
		out[j] = req.Apply(dot(bias[j], a, w[j*n:]))
	}
}

// flashRows checks that rows weight rows of n bytes at off lie inside blob
// ref and charges what rows FlashDot calls of length n, each followed by
// one Requantize, charge besides their Flash reads: n MACs and n ALU ops
// per row, and the requantize ALU ops. It returns the rows' bytes viewed
// in one piece, charging their traffic, or nil when they run past the
// device's Flash: the caller then views them row by row, so every row
// records its own traffic or violation.
func (c *Ctx) flashRows(op string, ref mcu.FlashRef, off, n, rows int) []byte {
	span := rows * n
	if off < 0 || off+span > ref.Len {
		panic(fmt.Sprintf("intrin: %s [%d,%d) outside blob of %d bytes", op, off, off+span, ref.Len))
	}
	c.chargeDot(span)
	c.Dev.CountALU(rows * requantizeALU)
	if start := ref.Off + off; start >= 0 && start+span <= c.Dev.FlashSize() {
		return c.Dev.FlashView(start, span)
	}
	return nil
}

// chargeDot charges an n-element dot product: per group of four, two
// SMLADs (four MACs) and four SXTB16/ROR widening ops; per tail element,
// one MAC and one ALU op.
func (c *Ctx) chargeDot(n int) {
	c.Dev.CountMACs(n)
	c.Dev.CountALU(n)
}

// dot returns acc plus the dot product of a and b[:len(a)], reading Flash
// bytes as int8.
func dot[T int8 | byte](acc int32, a []int8, b []T) int32 {
	b = b[:len(a)]
	for i, x := range a {
		acc += int32(x) * int32(int8(b[i]))
	}
	return acc
}

// Dot is the paper's fixed-size 2×2×16 matrix-multiply intrinsic:
// two int8 activation rows (16 deep) against two int8 weight rows
// (16 deep), accumulating the four dot products into acc:
//
//	acc[0] += a0·b0   acc[1] += a0·b1
//	acc[2] += a1·b0   acc[3] += a1·b1
//
// On ARM it lowers to a SADD16/SMLAD instruction sequence; here it charges
// the equivalent 64 MACs plus widening ops.
func (c *Ctx) Dot(a0, a1, b0, b1 []int8, acc *[4]int32) {
	if len(a0) != 16 || len(a1) != 16 || len(b0) != 16 || len(b1) != 16 {
		panic("intrin: Dot requires 16-element operands")
	}
	c.DotVec(a0, b0, &acc[0])
	c.DotVec(a0, b1, &acc[1])
	c.DotVec(a1, b0, &acc[2])
	c.DotVec(a1, b1, &acc[3])
}

// requantizeALU is the ALU cost of one Requantize.
const requantizeALU = 4

// Requantize converts an int32 accumulator to int8 output, charging the
// fixed-point multiply/shift/saturate sequence (~4 ALU ops).
func (c *Ctx) Requantize(acc int32, req tensor.Requant) int8 {
	c.Dev.CountALU(requantizeALU)
	return req.Apply(acc)
}

// SatAddInt8 performs the saturating int8 addition used by residual add
// layers, charging one ALU op (the ARM QADD8 lane op).
func (c *Ctx) SatAddInt8(a, b int8) int8 {
	c.Dev.CountALU(1)
	return tensor.SaturateInt8(int32(a) + int32(b))
}
