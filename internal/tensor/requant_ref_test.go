package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Branchy reference form of Requant.Apply: the rounding shift and the
// saturation as they were first written, one branch on the accumulator's
// sign and two on the int8 rails. quant.go computes the same values
// without data-dependent branches; these stay as its oracle.

func refApply(r Requant, acc int32) int8 {
	v := refMulHighRounded(acc, r.Mult)
	v = refRoundingRightShift(v, -r.Shift)
	v += r.ZeroPoint
	return refSaturateInt8(v)
}

func refMulHighRounded(a, b int32) int32 {
	if a == math.MinInt32 && b == math.MinInt32 {
		return math.MaxInt32
	}
	ab := int64(a) * int64(b)
	nudge := int64(1 << 30)
	if ab < 0 {
		nudge = 1 - 1<<30
	}
	return int32((ab + nudge) >> 31)
}

func refRoundingRightShift(v int32, n int) int32 {
	if n <= 0 {
		return v << uint(-n)
	}
	half := int64(1) << uint(n-1)
	x := int64(v)
	if x >= 0 {
		return int32((x + half) >> uint(n))
	}
	return int32(-((-x + half) >> uint(n)))
}

func refSaturateInt8(v int32) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

// shiftEdges returns, for a right shift by n, the int32 values where
// rounding and wrapping change: the rails, 0 and ±1, and every odd
// multiple of the half ulp 2^(n−1) within int32 at a spread of scales,
// each with its neighbours.
func shiftEdges(n int) []int32 {
	vs := []int64{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32, -1, 0, 1}
	if n > 0 {
		half := int64(1) << uint(n-1)
		for _, k := range []int64{1, 3, 5, 7, 255, 1<<20 + 1} {
			for _, sign := range []int64{1, -1} {
				for _, d := range []int64{-1, 0, 1} {
					vs = append(vs, sign*k*half+d)
				}
			}
		}
	}
	var out []int32
	for _, v := range vs {
		if v >= math.MinInt32 && v <= math.MaxInt32 {
			out = append(out, int32(v))
		}
	}
	return out
}

// TestRequantApplyMatchesBranchyForm checks the branch-free Apply, rounding
// shift and saturation against the branchy reference for every Shift in
// [−31, 1], at the accumulator rails and at ±half-ulp of the shift: Mult
// 2^30 halves an even accumulator exactly, so acc = 2·edge puts the shift's
// input on the edge itself. Mult ±1 with acc = ±2^30 ± 1 puts the doubling
// high multiply's own rounding on its half-ulp, for both product signs.
func TestRequantApplyMatchesBranchyForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mults := []int32{1 << 30, 1<<30 + 12345, math.MaxInt32, math.MinInt32, -1 << 30, 0, 1, -1}
	zps := []int32{0, -128, 127, 5, math.MinInt32, math.MaxInt32}
	for shift := -31; shift <= 1; shift++ {
		edges := shiftEdges(-shift)
		for _, v := range edges {
			if got, want := roundingRightShift(v, -shift), refRoundingRightShift(v, -shift); got != want {
				t.Fatalf("roundingRightShift(%d, %d) = %d, reference %d", v, -shift, got, want)
			}
		}
		accs := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, -1, 0, 1,
			1<<30 - 1, 1 << 30, 1<<30 + 1, -1<<30 - 1, -1 << 30, -1<<30 + 1}
		for _, v := range edges {
			if v >= math.MinInt32/2 && v <= math.MaxInt32/2 {
				accs = append(accs, 2*v)
			}
		}
		for i := 0; i < 64; i++ {
			accs = append(accs, int32(rng.Uint32()))
		}
		for _, mult := range mults {
			for _, zp := range zps {
				r := Requant{Mult: mult, Shift: shift, ZeroPoint: zp}
				for _, acc := range accs {
					if got, want := r.Apply(acc), refApply(r, acc); got != want {
						t.Fatalf("%+v.Apply(%d) = %d, reference %d", r, acc, got, want)
					}
				}
			}
		}
	}
	for _, v := range []int32{math.MinInt32, -129, -128, -127, -1, 0, 1, 126, 127, 128, math.MaxInt32} {
		if got, want := SaturateInt8(v), refSaturateInt8(v); got != want {
			t.Fatalf("SaturateInt8(%d) = %d, reference %d", v, got, want)
		}
	}
	if got := mulHighRounded(math.MinInt32, math.MinInt32); got != refMulHighRounded(math.MinInt32, math.MinInt32) {
		t.Fatalf("mulHighRounded(MinInt32, MinInt32) = %d, reference %d", got, math.MaxInt32)
	}
}

// FuzzRequantApply checks Apply against the branchy reference on fuzzed
// accumulators and parameters, with Shift folded into [−31, 1].
func FuzzRequantApply(f *testing.F) {
	f.Add(int32(0), int32(1<<30), int8(-7), int32(0))
	f.Add(int32(math.MinInt32), int32(math.MinInt32), int8(0), int32(-128))
	f.Add(int32(math.MaxInt32), int32(math.MaxInt32), int8(1), int32(127))
	f.Add(int32(-3<<10), int32(1<<30), int8(-11), int32(3))
	f.Add(int32(1<<11), int32(1<<30), int8(-31), int32(math.MaxInt32))
	f.Fuzz(func(t *testing.T, acc, mult int32, shift int8, zp int32) {
		r := Requant{Mult: mult, Shift: int(min(max(shift, -31), 1)), ZeroPoint: zp}
		if got, want := r.Apply(acc), refApply(r, acc); got != want {
			t.Fatalf("%+v.Apply(%d) = %d, reference %d", r, acc, got, want)
		}
	})
}

// sinkInt8 keeps benchmark results live.
var sinkInt8 int8

// BenchmarkRequantApply requantizes a fixed spread of accumulators, both
// signs and both rails, at a typical layer scale. One op is 1024 Apply
// calls.
func BenchmarkRequantApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	accs := make([]int32, 1024)
	for i := range accs {
		accs[i] = int32(rng.Intn(1<<17) - 1<<16)
	}
	r := NewRequant(0.0021, -3)
	b.ReportAllocs()
	var s int8
	for b.Loop() {
		for _, acc := range accs {
			s ^= r.Apply(acc)
		}
	}
	sinkInt8 = s
}
