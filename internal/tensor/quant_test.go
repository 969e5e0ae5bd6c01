package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRequantRoundTripScale(t *testing.T) {
	for _, scale := range []float64{0.5, 0.25, 0.0039, 1.0, 0.7311, 1.5, 2.25e-3} {
		r := NewRequant(scale, 0)
		if got := r.Scale(); math.Abs(got-scale)/scale > 1e-6 {
			t.Errorf("scale %g round-tripped to %g", scale, got)
		}
		if r.Mult < 1<<30 {
			t.Errorf("scale %g: multiplier %d below Q31 normal range", scale, r.Mult)
		}
	}
}

func TestNewRequantPanicsOnBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRequant(%v) did not panic", s)
				}
			}()
			NewRequant(s, 0)
		}()
	}
}

func TestRequantApplyMatchesFloat(t *testing.T) {
	// For a wide range of accumulators and scales, the fixed-point result
	// must be within 1 LSB of the real-valued rounding.
	scales := []float64{0.0017, 0.01, 0.12, 0.5, 0.99}
	accs := []int32{-100000, -1287, -1, 0, 1, 500, 32767, 99999}
	for _, s := range scales {
		r := NewRequant(s, 3)
		for _, a := range accs {
			want := math.Round(float64(a)*s) + 3
			if want > 127 {
				want = 127
			}
			if want < -128 {
				want = -128
			}
			got := r.Apply(a)
			if math.Abs(float64(got)-want) > 1 {
				t.Errorf("Apply(%d) scale %g = %d, want %g±1", a, s, got, want)
			}
		}
	}
}

func TestRequantSaturates(t *testing.T) {
	r := NewRequant(1.0, 0)
	if got := r.Apply(1 << 20); got != 127 {
		t.Errorf("positive overflow -> %d, want 127", got)
	}
	if got := r.Apply(-(1 << 20)); got != -128 {
		t.Errorf("negative overflow -> %d, want -128", got)
	}
}

func TestSaturateInt8(t *testing.T) {
	cases := []struct {
		in   int32
		want int8
	}{{200, 127}, {-300, -128}, {5, 5}, {-5, -5}, {127, 127}, {-128, -128}}
	for _, c := range cases {
		if got := SaturateInt8(c.in); got != c.want {
			t.Errorf("SaturateInt8(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRoundingRightShift(t *testing.T) {
	cases := []struct {
		v    int32
		n    int
		want int32
	}{
		{10, 1, 5}, {11, 1, 6}, {-11, 1, -6}, {-10, 1, -5},
		{7, 2, 2}, {-7, 2, -2}, {6, 2, 2}, {-6, 2, -2},
		{5, 0, 5}, {5, -1, 10},
	}
	for _, c := range cases {
		if got := roundingRightShift(c.v, c.n); got != c.want {
			t.Errorf("roundingRightShift(%d,%d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}

func TestMulHighRoundedSaturationCase(t *testing.T) {
	if got := mulHighRounded(math.MinInt32, math.MinInt32); got != math.MaxInt32 {
		t.Errorf("min*min = %d, want MaxInt32", got)
	}
}

func TestRequantQuickWithinOneLSB(t *testing.T) {
	f := func(acc int32, raw uint16) bool {
		scale := 0.001 + float64(raw%1000)/1000.0 // (0.001, 1.0)
		r := NewRequant(scale, 0)
		want := math.Round(float64(acc%100000) * scale)
		if want > 127 {
			want = 127
		}
		if want < -128 {
			want = -128
		}
		got := float64(r.Apply(acc % 100000))
		return math.Abs(got-want) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
