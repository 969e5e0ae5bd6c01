package intrin

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// matVecRun is the observable result of one mat-vec on a fresh device:
// the outputs, the full counters and the violation log.
type matVecRun struct {
	out        []int8
	stats      mcu.Stats
	violations []mcu.Violation
	count      int
}

// matVecCase is one mat-vec: len(out) = rows weight rows of len(a) bytes
// at off within blob ref, whose bytes (flash) sit at Flash offset ref.Off
// of a device with flashBytes of Flash, clipped to its end.
type matVecCase struct {
	a          []int8
	rows       int
	flash      []byte
	flashBytes int
	ref        mcu.FlashRef
	off        int
	bias       []int32
	req        tensor.Requant
}

// run executes the case on a fresh device, through FlashMatVec or through
// its definition: per row, FlashDot from the bias, then Requantize.
func (mc matVecCase) run(t testing.TB, blocked bool) matVecRun {
	t.Helper()
	prof := mcu.CortexM4()
	prof.RAMKB = 1 // the mat-vec touches no RAM
	c := NewCtx(mcu.New(prof, mc.flashBytes), nil)
	if _, err := c.Dev.FlashAlloc(make([]byte, min(mc.ref.Off, mc.flashBytes))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dev.FlashAlloc(mc.flash[:min(len(mc.flash), mc.flashBytes-c.Dev.FlashUsed())]); err != nil {
		t.Fatal(err)
	}
	out := make([]int8, mc.rows)
	if blocked {
		c.FlashMatVec(out, mc.a, mc.ref, mc.off, mc.bias, mc.req)
	} else {
		for j := range out {
			acc := mc.bias[j]
			c.FlashDot(mc.a, mc.ref, mc.off+j*len(mc.a), &acc)
			out[j] = c.Requantize(acc, mc.req)
		}
	}
	vs, n := c.Dev.Violations()
	return matVecRun{out: out, stats: c.Dev.Stats, violations: slices.Clone(vs), count: n}
}

// check requires FlashMatVec to match the per-row definition exactly.
func (mc matVecCase) check(t testing.TB, name string) {
	t.Helper()
	want, got := mc.run(t, false), mc.run(t, true)
	if !slices.Equal(got.out, want.out) {
		t.Fatalf("%s: FlashMatVec = %v, FlashDot+Requantize = %v", name, got.out, want.out)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: FlashMatVec charged %+v, FlashDot+Requantize %+v", name, got.stats, want.stats)
	}
	if got.count != want.count || !slices.Equal(got.violations, want.violations) {
		t.Fatalf("%s: FlashMatVec recorded %d violations %v, FlashDot+Requantize %d %v",
			name, got.count, got.violations, want.count, want.violations)
	}
}

// newMatVecCase draws a case of rows rows of n weights from rng, with the
// blob at Flash offset blobOff of a device with flashBytes of Flash.
func newMatVecCase(rng *rand.Rand, n, rows, blobOff, flashBytes int) matVecCase {
	i8 := func() int8 { return int8(rng.Intn(256) - 128) }
	mc := matVecCase{
		a:          make([]int8, n),
		rows:       rows,
		flash:      make([]byte, 5+rows*n+2),
		flashBytes: flashBytes,
		off:        5, // the rows sit inside a larger weight tensor
		bias:       make([]int32, rows),
		req:        tensor.Requant{Mult: int32(1<<30 + rng.Intn(1<<30)), Shift: -rng.Intn(12), ZeroPoint: int32(rng.Intn(21) - 10)},
	}
	mc.ref = mcu.FlashRef{Off: blobOff, Len: len(mc.flash)}
	for i := range mc.a {
		mc.a[i] = i8()
	}
	for i := range mc.flash {
		mc.flash[i] = byte(i8())
	}
	for i := range mc.bias {
		mc.bias[i] = int32(rng.Intn(1<<16) - 1<<15)
	}
	return mc
}

// TestFlashMatVecMatchesFlashDotRows checks FlashMatVec against per-row
// FlashDot+Requantize: outputs, full Stats and violation log, for every
// activation length 0–67 and row count 0–9 (every residue mod 4), with
// all −128 operands and accumulators that wrap, and with spans that run
// past the end of the device's Flash at every row boundary.
func TestFlashMatVecMatchesFlashDotRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 67; n++ {
		for rows := 0; rows <= 9; rows++ {
			newMatVecCase(rng, n, rows, 3, 1<<12).check(t, "in flash")

			rails := newMatVecCase(rng, n, rows, 0, 1<<12)
			for i := range rails.a {
				rails.a[i] = -128
			}
			for i := range rails.flash {
				rails.flash[i] = 0x80
			}
			for i := range rails.bias {
				rails.bias[i] = math.MaxInt32 - int32(i)
			}
			rails.check(t, "rails")
		}
	}
	// The device's Flash ends before the blob, at every row boundary
	// (the rows start 5 bytes into the blob) and halfway into every row.
	for _, n := range []int{1, 4, 7, 16, 67} {
		for rows := 1; rows <= 9; rows++ {
			cuts := []int{0}
			for j := 0; j <= rows; j++ {
				cuts = append(cuts, 5+j*n, 5+j*n+n/2)
			}
			for _, cut := range cuts {
				newMatVecCase(rng, n, rows, 40, 40+cut).check(t, fmt.Sprintf("flash ends %d bytes into the blob", cut))
			}
		}
	}
}

// TestFlashMatVecPanicsOutOfBlob: rows past their blob are a kernel bug,
// as they are for FlashDot; a bias of the wrong length is one too.
func TestFlashMatVecPanicsOutOfBlob(t *testing.T) {
	c := newCtx(t)
	ref, err := c.Dev.FlashAlloc(make([]byte, 12))
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"rows past blob": func() { c.FlashMatVec(make([]int8, 4), make([]int8, 4), ref, 0, make([]int32, 4), tensor.Requant{}) },
		"short bias":     func() { c.FlashMatVec(make([]int8, 2), make([]int8, 4), ref, 0, make([]int32, 1), tensor.Requant{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzFlashMatVec checks FlashMatVec against per-row FlashDot+Requantize
// on fuzzed shapes, data and Flash sizes, including Flash that ends inside
// the rows.
func FuzzFlashMatVec(f *testing.F) {
	f.Add(uint8(16), uint8(4), int64(1), uint16(1<<12), int8(-7))
	f.Add(uint8(67), uint8(9), int64(2), uint16(60), int8(0))
	f.Add(uint8(0), uint8(3), int64(3), uint16(0), int8(-31))
	f.Add(uint8(80), uint8(16), int64(4), uint16(1300), int8(1))
	f.Fuzz(func(t *testing.T, n, rows uint8, seed int64, flashBytes uint16, shift int8) {
		rng := rand.New(rand.NewSource(seed))
		mc := newMatVecCase(rng, int(n), int(rows%33), 40, int(flashBytes))
		mc.req.Shift = int(min(max(shift, -31), 1))
		mc.check(t, "fuzz")
	})
}
