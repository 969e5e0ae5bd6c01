package intrin

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

func newCtx(t *testing.T) *Ctx {
	t.Helper()
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	pool, err := seg.NewPool(dev, 0, 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	return NewCtx(dev, pool)
}

func TestRegAllocZeroAndInit(t *testing.T) {
	c := newCtx(t)
	r := c.RegAlloc(8, 0)
	if len(r) != 8 || r[3] != 0 {
		t.Errorf("RegAlloc zero wrong: %v", r)
	}
	r = c.RegAlloc(4, -7)
	if r[0] != -7 || r[3] != -7 {
		t.Errorf("RegAlloc init wrong: %v", r)
	}
	if c.Dev.Stats.ALUOps != 12 {
		t.Errorf("ALU ops = %d, want 12", c.Dev.Stats.ALUOps)
	}
}

// TestRegResetChargesLikeRegAlloc: resetting used registers to v yields
// what RegAlloc(len(r), v) returns, at the same charge.
func TestRegResetChargesLikeRegAlloc(t *testing.T) {
	for _, v := range []int32{0, -7} {
		alloc, reset := newCtx(t), newCtx(t)
		want := alloc.RegAlloc(5, v)
		r := []int32{1, 2, 3, 4, 5}
		reset.RegReset(r, v)
		for i := range want {
			if r[i] != want[i] {
				t.Fatalf("v=%d: RegReset gave %v, RegAlloc %v", v, r, want)
			}
		}
		if alloc.Dev.Stats != reset.Dev.Stats {
			t.Errorf("v=%d: RegReset charged %+v, RegAlloc %+v", v, reset.Dev.Stats, alloc.Dev.Stats)
		}
	}
}

func TestRAMStoreLoadRoundTrip(t *testing.T) {
	c := newCtx(t)
	id := c.Dev.NewTensorID("x")
	src := []int8{-1, 2, -3, 4, 127, -128}
	c.RAMStore(100, src, id, 0)
	dst := make([]int8, 6)
	c.RAMLoad(dst, 100, id, 0)
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d: %d != %d", i, dst[i], src[i])
		}
	}
	if c.Dev.Stats.DivModOps < 2 {
		t.Error("boundary-check modulo ops not charged")
	}
	if c.Dev.Stats.Branches != 2 {
		t.Errorf("branches = %d, want 2", c.Dev.Stats.Branches)
	}
}

func TestRAMLoadWrapsAroundPool(t *testing.T) {
	c := newCtx(t)
	id := c.Dev.NewTensorID("x")
	// Store 8 bytes ending past the pool boundary (cap 4096).
	src := []int8{1, 2, 3, 4, 5, 6, 7, 8}
	c.RAMStore(4092, src, id, 0)
	dst := make([]int8, 8)
	c.RAMLoad(dst, 4092, id, 0)
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[7] != 8 {
		t.Errorf("wrapped data wrong: %v", dst)
	}
	// The wrapped tail must physically be at pool offset 0..3.
	head := make([]byte, 4)
	c.Pool.ReadRawBytes(0, head)
	if head[0] != 5 || head[3] != 8 {
		t.Errorf("wrapped tail not at pool head: %v", head)
	}
}

func TestRAMFreeReleases(t *testing.T) {
	c := newCtx(t)
	id := c.Dev.NewTensorID("x")
	c.RAMStore(0, make([]int8, 10), id, 0)
	c.RAMFree(0, 10, id)
	if c.Dev.LiveBytes() != 0 {
		t.Errorf("live = %d after free", c.Dev.LiveBytes())
	}
}

func TestFlashLoad(t *testing.T) {
	c := newCtx(t)
	ref, err := c.Dev.FlashAlloc([]byte{0xFF, 0x01, 0x80})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int8, 3)
	c.FlashLoad(dst, ref, 0)
	if dst[0] != -1 || dst[1] != 1 || dst[2] != -128 {
		t.Errorf("flash load wrong: %v", dst)
	}
}

func TestFlashLoadInt32(t *testing.T) {
	c := newCtx(t)
	raw := make([]byte, 8)
	binary.LittleEndian.PutUint32(raw[0:], uint32(123456))
	binary.LittleEndian.PutUint32(raw[4:], uint32(0xFFFFFFFF)) // -1
	ref, err := c.Dev.FlashAlloc(raw)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 2)
	c.FlashLoadInt32(dst, ref, 0)
	if dst[0] != 123456 || dst[1] != -1 {
		t.Errorf("flash load32 wrong: %v", dst)
	}
}

func TestFlashLoadPanicsOutOfBlob(t *testing.T) {
	c := newCtx(t)
	ref, _ := c.Dev.FlashAlloc([]byte{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.FlashLoad(make([]int8, 3), ref, 0)
}

func TestDotVecMatchesScalar(t *testing.T) {
	c := newCtx(t)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		n := rng.Intn(33)
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
		}
		var want int32
		for i := range a {
			want += int32(a[i]) * int32(b[i])
		}
		acc := int32(rng.Intn(100))
		want += acc
		c.DotVec(a, b, &acc)
		if acc != want {
			t.Fatalf("iter %d: DotVec = %d, want %d", iter, acc, want)
		}
	}
}

func TestDotVecChargesMACs(t *testing.T) {
	c := newCtx(t)
	var acc int32
	c.DotVec(make([]int8, 19), make([]int8, 19), &acc)
	if c.Dev.Stats.MACs != 19 {
		t.Errorf("MACs = %d, want 19", c.Dev.Stats.MACs)
	}
}

// refDot is the target's lowering of a dot product: mcu.DotInt8x4 (the
// SXTB16/ROR/SMLAD sequence) over packed groups of four, then a scalar
// multiply-accumulate tail.
func refDot(a, b []int8, acc int32) int32 {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		acc = mcu.DotInt8x4(mcu.PackBytes(a[i], a[i+1], a[i+2], a[i+3]),
			mcu.PackBytes(b[i], b[i+1], b[i+2], b[i+3]), acc)
	}
	for ; i < len(a); i++ {
		acc += int32(a[i]) * int32(b[i])
	}
	return acc
}

// TestDotMatchesSMLADChain checks DotVec and FlashDot against the SMLAD
// chain for every length 0..67 on random, all −128, all +127 and
// −128×+127 operands, with accumulators near both int32 rails so the sum
// wraps. FlashDot must charge exactly what FlashLoad then DotVec charge.
func TestDotMatchesSMLADChain(t *testing.T) {
	c := newCtx(t)
	rng := rand.New(rand.NewSource(11))
	accs := []int32{0, -7, math.MaxInt32, math.MaxInt32 - 5000, math.MinInt32, math.MinInt32 + 5000}
	flip := false
	fills := []struct {
		name string
		next func() int8
	}{
		{"random", func() int8 { return int8(rng.Intn(256) - 128) }},
		{"all -128", func() int8 { return -128 }},
		{"all +127", func() int8 { return 127 }},
		{"-128 x +127", func() int8 {
			flip = !flip
			if flip {
				return -128
			}
			return 127
		}},
	}
	for n := 0; n <= 67; n++ {
		for _, f := range fills {
			a, b := make([]int8, n), make([]int8, n)
			for i := range a {
				a[i], b[i] = f.next(), f.next()
			}
			// The weight row sits 3 bytes into its blob, as a kernel's rows
			// sit inside one weight tensor.
			blob := []byte{0xAA, 0x55, 0x80}
			for _, v := range b {
				blob = append(blob, byte(v))
			}
			ref, err := c.Dev.FlashAlloc(append(blob, 0x7F))
			if err != nil {
				t.Fatal(err)
			}
			for _, acc0 := range accs {
				want := refDot(a, b, acc0)

				got, before := acc0, c.Dev.Stats
				c.DotVec(a, b, &got)
				cost := c.Dev.Stats.Sub(before)
				if got != want || cost != (mcu.Stats{MACs: uint64(n), ALUOps: uint64(n)}) {
					t.Fatalf("%s n=%d acc=%d: DotVec = %d charging %+v; SMLAD chain = %d", f.name, n, acc0, got, cost, want)
				}

				w, pair := make([]int8, n), acc0
				before = c.Dev.Stats
				c.FlashLoad(w, ref, 3)
				c.DotVec(a, w, &pair)
				pairCost := c.Dev.Stats.Sub(before)

				fused := acc0
				before = c.Dev.Stats
				c.FlashDot(a, ref, 3, &fused)
				fusedCost := c.Dev.Stats.Sub(before)
				if fused != want || pair != want {
					t.Fatalf("%s n=%d acc=%d: FlashDot = %d, FlashLoad+DotVec = %d, SMLAD chain = %d",
						f.name, n, acc0, fused, pair, want)
				}
				if fusedCost != pairCost {
					t.Fatalf("%s n=%d: FlashDot charged %+v, FlashLoad+DotVec %+v", f.name, n, fusedCost, pairCost)
				}
			}
		}
	}
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
}

// TestFlashDotOutOfRange: a read past the blob is a kernel bug and panics,
// as FlashLoad does; a read past the end of Flash is a device fault that
// records OutOfBounds, charges no Flash traffic and leaves *acc alone.
func TestFlashDotOutOfRange(t *testing.T) {
	c := newCtx(t)
	ref, err := c.Dev.FlashAlloc([]byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FlashDot past its blob did not panic")
			}
		}()
		var acc int32
		c.FlashDot(make([]int8, 3), ref, 2, &acc)
	}()
	acc := int32(5)
	c.FlashDot([]int8{1, 1, 1, 1}, mcu.FlashRef{Off: 1<<16 - 2, Len: 8}, 0, &acc)
	vs, n := c.Dev.Violations()
	if n != 1 || vs[0].Kind != mcu.OutOfBounds {
		t.Fatalf("violations = %d %v, want one out-of-bounds", n, vs)
	}
	if c.Dev.Stats.FlashReadBytes != 0 || acc != 5 {
		t.Errorf("out-of-range FlashDot read %d Flash bytes, acc = %d", c.Dev.Stats.FlashReadBytes, acc)
	}
}

// TestChargeFlashDotRowsMatchesFlashDotRequantize: the charge a kernel
// pays for a B pixel it already holds leaves Stats and the violation log
// exactly as the rows FlashDot+Requantize calls it stands for, inside
// Flash and for rows that run past the device's Flash.
func TestChargeFlashDotRowsMatchesFlashDotRequantize(t *testing.T) {
	req := tensor.NewRequant(0.02, 0)
	for _, cse := range []struct {
		name          string
		ref           mcu.FlashRef
		off, n, rows  int
		wantViolating int
	}{
		{"in flash", mcu.FlashRef{Off: 5, Len: 400}, 3, 16, 24, 0},
		{"one row", mcu.FlashRef{Off: 0, Len: 8}, 0, 8, 1, 0},
		{"tail element rows", mcu.FlashRef{Off: 11, Len: 300}, 7, 3, 80, 0},
		{"empty rows", mcu.FlashRef{Off: 0, Len: 0}, 0, 0, 48, 0},
		{"past device flash", mcu.FlashRef{Off: 1<<16 - 40, Len: 96}, 8, 16, 5, 3},
	} {
		stats := func(charge func(c *Ctx)) (mcu.Stats, []mcu.Violation) {
			c := newCtx(t)
			if _, err := c.Dev.FlashAlloc(make([]byte, 1024)); err != nil {
				t.Fatal(err)
			}
			charge(c)
			vs, _ := c.Dev.Violations()
			return c.Dev.Stats, vs
		}
		want, wantV := stats(func(c *Ctx) {
			a := make([]int8, cse.n)
			for i := 0; i < cse.rows; i++ {
				var acc int32
				c.FlashDot(a, cse.ref, cse.off+i*cse.n, &acc)
				c.Requantize(acc, req)
			}
		})
		got, gotV := stats(func(c *Ctx) { c.ChargeFlashDotRows(cse.ref, cse.off, cse.n, cse.rows) })
		if got != want {
			t.Errorf("%s: charged %+v, FlashDot+Requantize %+v", cse.name, got, want)
		}
		if len(wantV) != cse.wantViolating || len(gotV) != len(wantV) {
			t.Fatalf("%s: %d violations, FlashDot+Requantize %d, want %d", cse.name, len(gotV), len(wantV), cse.wantViolating)
		}
		for i := range wantV {
			if gotV[i] != wantV[i] {
				t.Errorf("%s: violation %d = %v, FlashDot+Requantize %v", cse.name, i, gotV[i], wantV[i])
			}
		}
	}
}

func TestDot2x2x16(t *testing.T) {
	c := newCtx(t)
	rng := rand.New(rand.NewSource(9))
	a0 := make([]int8, 16)
	a1 := make([]int8, 16)
	b0 := make([]int8, 16)
	b1 := make([]int8, 16)
	for i := 0; i < 16; i++ {
		a0[i] = int8(rng.Intn(255) - 127)
		a1[i] = int8(rng.Intn(255) - 127)
		b0[i] = int8(rng.Intn(255) - 127)
		b1[i] = int8(rng.Intn(255) - 127)
	}
	dot := func(x, y []int8) int32 {
		var s int32
		for i := range x {
			s += int32(x[i]) * int32(y[i])
		}
		return s
	}
	acc := [4]int32{1, 2, 3, 4}
	want := [4]int32{1 + dot(a0, b0), 2 + dot(a0, b1), 3 + dot(a1, b0), 4 + dot(a1, b1)}
	c.Dot(a0, a1, b0, b1, &acc)
	if acc != want {
		t.Errorf("Dot = %v, want %v", acc, want)
	}
	if c.Dev.Stats.MACs != 64 {
		t.Errorf("Dot MACs = %d, want 64 (2x2x16)", c.Dev.Stats.MACs)
	}
}

func TestDotPanics(t *testing.T) {
	c := newCtx(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var acc [4]int32
	c.Dot(make([]int8, 8), make([]int8, 16), make([]int8, 16), make([]int8, 16), &acc)
}

func TestBroadcast(t *testing.T) {
	c := newCtx(t)
	lo, hi := mcu.Lanes16(c.Broadcast(-300))
	if lo != -300 || hi != -300 {
		t.Errorf("Broadcast lanes = %d,%d", lo, hi)
	}
	if c.Dev.Stats.ALUOps != 1 {
		t.Errorf("Broadcast ALU = %d, want 1", c.Dev.Stats.ALUOps)
	}
}

func TestRequantize(t *testing.T) {
	c := newCtx(t)
	req := tensor.NewRequant(0.5, 0)
	if got := c.Requantize(100, req); got != 50 {
		t.Errorf("Requantize = %d, want 50", got)
	}
}

func TestSatAddInt8(t *testing.T) {
	c := newCtx(t)
	if got := c.SatAddInt8(100, 100); got != 127 {
		t.Errorf("SatAdd = %d, want 127", got)
	}
	if got := c.SatAddInt8(-100, -100); got != -128 {
		t.Errorf("SatAdd = %d, want -128", got)
	}
	if got := c.SatAddInt8(3, -5); got != -2 {
		t.Errorf("SatAdd = %d, want -2", got)
	}
}

// TestAsBytesSharesMemory pins the view's contract: the same length and
// the same memory, so a write through either slice shows through the
// other, and nil or empty input is safe.
func TestAsBytesSharesMemory(t *testing.T) {
	s := []int8{-128, -1, 0, 1, 127}
	b := AsBytes(s)
	if len(b) != len(s) || cap(b) != len(s) {
		t.Fatalf("view len %d cap %d, want %d", len(b), cap(b), len(s))
	}
	for i, v := range s {
		if b[i] != byte(v) {
			t.Errorf("view[%d] = %#x, want %#x", i, b[i], byte(v))
		}
	}
	b[1] = 0x80
	s[3] = -2
	if s[1] != -128 || b[3] != 0xFE {
		t.Errorf("writes do not show through: s[1]=%d b[3]=%#x", s[1], b[3])
	}
	if sub := AsBytes(s[2:4]); len(sub) != 2 || &sub[0] != &b[2] {
		t.Error("view of a subslice does not alias the parent's bytes")
	}
	if v := AsBytes(nil); v != nil {
		t.Errorf("view of nil = %v, want nil", v)
	}
	if v := AsBytes(s[:0]); len(v) != 0 {
		t.Errorf("view of an empty slice has length %d", len(v))
	}
}
