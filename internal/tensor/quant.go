package tensor

import "math"

// Requant describes CMSIS-NN style fixed-point requantization of an int32
// accumulator back to int8: out = SSAT(round(acc * Mult * 2^Shift) + ZP).
// Mult is a Q31 multiplier in [2^30, 2^31) and Shift <= 0 in practice for
// DNN layers (the combined scale inScale*wScale/outScale is < 1).
type Requant struct {
	Mult      int32 // Q31 fixed-point multiplier
	Shift     int   // power-of-two exponent (left shift if > 0)
	ZeroPoint int32 // output zero point
}

// NewRequant converts a real-valued combined scale into the (Mult, Shift)
// fixed-point pair, exactly as gemmlowp/CMSIS-NN do.
func NewRequant(scale float64, zeroPoint int32) Requant {
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		panic("tensor: requantization scale must be positive and finite")
	}
	mant, exp := math.Frexp(scale) // scale = mant * 2^exp, mant in [0.5, 1)
	q := int64(math.Round(mant * (1 << 31)))
	if q == 1<<31 { // mant rounded up to exactly 1.0
		q /= 2
		exp++
	}
	return Requant{Mult: int32(q), Shift: exp, ZeroPoint: zeroPoint}
}

// Scale returns the real multiplier this Requant represents.
func (r Requant) Scale() float64 {
	return float64(r.Mult) / (1 << 31) * math.Pow(2, float64(r.Shift))
}

// Apply requantizes an int32 accumulator to int8 using round-to-nearest-
// even-agnostic rounding (round half away from zero, matching
// SaturatingRoundingDoublingHighMul + rounding right shift in CMSIS-NN).
// Every kernel and golden output passes through it, so its rounding and
// saturation are written without data-dependent branches.
func (r Requant) Apply(acc int32) int8 {
	v := mulHighRounded(acc, r.Mult)
	v = roundingRightShift(v, -r.Shift)
	v += r.ZeroPoint
	return SaturateInt8(v)
}

// mulHighRounded computes SaturatingRoundingDoublingHighMul(a, b):
// round(a*b*2 / 2^32) with saturation on the single overflow case.
func mulHighRounded(a, b int32) int32 {
	if a == math.MinInt32 && b == math.MinInt32 {
		return math.MaxInt32
	}
	ab := int64(a) * int64(b)
	// The nudge is 2^30, or 1 − 2^30 for a negative product: the sign mask
	// selects the difference without a branch.
	nudge := int64(1<<30) + (ab>>63)&(1-1<<31)
	return int32((ab + nudge) >> 31)
}

// roundingRightShift shifts right by n with round-half-away-from-zero,
// matching CMSIS-NN's rounding divide-by-power-of-two. n <= 0 shifts left.
// It rounds the magnitude and restores the sign through a sign mask, so
// the accumulator's sign costs no branch: in 64 bits neither the
// magnitude of an int32 nor the rounding half can overflow. At n = 0 the
// half is 0 (a Go shift by at least the width yields 0), leaving v as is.
func roundingRightShift(v int32, n int) int32 {
	if n < 0 {
		return v << uint(-n)
	}
	x := int64(v)
	sign := x >> 63 // 0 or -1
	mag := (x ^ sign) - sign
	r := (mag + int64(1)<<uint(n-1)) >> uint(n)
	return int32((r ^ sign) - sign)
}

// SaturateInt8 clamps v to the int8 range, the software analogue of the
// ARM SSAT instruction with an 8-bit width.
func SaturateInt8(v int32) int8 {
	return int8(min(max(v, -128), 127))
}
