package seg

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
)

func newPool(t *testing.T, capBytes int) (*mcu.Device, *Pool) {
	t.Helper()
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	p, err := NewPool(dev, 0, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	return dev, p
}

func TestNewPoolValidation(t *testing.T) {
	dev := mcu.New(mcu.CortexM4(), 0)
	for _, c := range []struct {
		name           string
		base, capBytes int
	}{
		{"zero capacity", 0, 0},
		{"negative capacity", 0, -64},
		{"negative base", -1, 64},
		{"pool past RAM", 0, dev.RAMSize() + 1},
		{"pool past RAM at a base", 128, dev.RAMSize() - 127},
	} {
		if _, err := NewPool(dev, c.base, c.capBytes); err == nil {
			t.Errorf("%s: pool [%d,%d) accepted", c.name, c.base, c.base+c.capBytes)
		}
	}
	// ImageNet's network peak at a nonzero base: no unit's segment size
	// (24 B for B7, 40 B for B10, ...) divides it, and none has to. An
	// access across its end wraps to its base.
	p, err := NewPool(dev, 12, 65968)
	if err != nil {
		t.Fatal(err)
	}
	p.StoreBytes(65966, []byte{1, 2, 3, 4}, dev.NewTensorID("x"), 0)
	got := make([]byte, 4)
	dev.ReadRaw(12+65966, got[:2])
	dev.ReadRaw(12, got[2:])
	if err := dev.CheckFaults(); err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("store across the end of [12, 65980) left %v (%v), want 1 2 3 4 at 65978 and 12", got, err)
	}
	if _, err := NewPool(dev, 0, dev.RAMSize()); err != nil {
		t.Errorf("pool of all RAM rejected: %v", err)
	}
}

// TestStoreLoadRoundTrip stores a tensor as large as the pool at an
// offset that wraps, and reads every byte back under its element tags.
func TestStoreLoadRoundTrip(t *testing.T) {
	dev, p := newPool(t, 60)
	id := dev.NewTensorID("x")
	src := make([]byte, 60)
	for i := range src {
		src[i] = byte(i + 1)
	}
	p.StoreBytes(37, src, id, 100)
	dst := make([]byte, 60)
	p.LoadBytes(37, dst, id, 100)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	if dev.LiveBytes() != 60 {
		t.Errorf("live bytes = %d, want the whole pool", dev.LiveBytes())
	}
}

// TestStoreLoadAcrossWrap checks that logical offsets a whole number of
// pool lengths apart name the same physical bytes, and that the shadow
// state tells them apart by element: reading a recycled cell as a later
// element of the tensor is flagged.
func TestStoreLoadAcrossWrap(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("x")
	p.StoreBytes(2*64+19, []byte{42}, id, 0) // physical byte 19
	dst := make([]byte, 1)
	p.LoadBytes(19, dst, id, 0)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 42 {
		t.Errorf("wrapped store not visible: %d", dst[0])
	}
	p.LoadBytes(19+64, dst, id, 64)
	if err := dev.CheckFaults(); err == nil {
		t.Fatal("reading a recycled byte as element 64 was not flagged")
	}
	dev.ResetViolations()
	p.LoadBytes(19-64, dst, id, 0)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	p.FreeBytes(19, 1, id)
	if dev.LiveBytes() != 0 {
		t.Errorf("live bytes after free = %d", dev.LiveBytes())
	}
}

func TestFreeThenReuse(t *testing.T) {
	dev, p := newPool(t, 64)
	in := dev.NewTensorID("in")
	out := dev.NewTensorID("out")
	p.StoreBytes(62, []byte{1, 2, 3}, in, 0) // wraps
	p.FreeBytes(62, 3, in)
	p.StoreBytes(62, []byte{9, 9, 9}, out, 0)
	dst := make([]byte, 3)
	p.LoadBytes(62, dst, out, 0)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 9 || dst[2] != 9 {
		t.Errorf("reused bytes wrong: %v", dst)
	}
}

// TestClaimSpansSegments places pre-materialized data across the pool
// end and reads an interior element range back under the claimed tags.
func TestClaimSpansSegments(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("input")
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(i)
	}
	p.WriteRawBytes(40, data) // bytes 40..63, then 0..15
	p.ClaimBytes(40, 40, id, 0)
	dst := make([]byte, 16)
	p.LoadBytes(56, dst, id, 16) // elements [16,32): bytes 56..63, 0..7
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 16 || dst[15] != 31 {
		t.Errorf("claimed content wrong: %v", dst)
	}
	if dev.LiveBytes() != 40 {
		t.Errorf("live bytes = %d, want 40", dev.LiveBytes())
	}
}

func TestReadRawAcrossWrap(t *testing.T) {
	_, p := newPool(t, 64)
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i + 1)
	}
	p.WriteRawBytes(48, data) // bytes 48..63, then 0..15
	got := make([]byte, 32)
	p.ReadRawBytes(48-64, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("ReadRawBytes mismatch at %d: %d != %d", i, got[i], data[i])
		}
	}
}

func TestPeakTracksOverlapSavings(t *testing.T) {
	// The core paper mechanism: storing output into freed input bytes
	// must not raise the watermark beyond the planned footprint.
	const seg = 16
	dev, p := newPool(t, 10*seg)
	in := dev.NewTensorID("in")
	out := dev.NewTensorID("out")
	// 6 input segments at bytes [16, 112) (the Figure 1c layout).
	for s := 0; s < 6; s++ {
		p.StoreBytes((1+s)*seg, make([]byte, seg), in, s*seg)
	}
	dev.ResetPeak()
	// Produce 4 output segments at bytes [0, 64); free input after each
	// step like the motivating example: out[0] lands in an empty segment,
	// then each subsequent output reuses a freed input segment.
	for s := 0; s < 4; s++ {
		p.StoreBytes(s*seg, make([]byte, seg), out, s*seg)
		p.FreeBytes((1+s)*seg, seg, in)
	}
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	// Peak: 6 input + 1 output empty segment = 7 segments = 112 bytes,
	// exactly the paper's "7 segments instead of 10".
	if got := dev.PeakBytes(); got != 7*seg {
		t.Errorf("peak = %d bytes, want %d (7 segments)", got, 7*seg)
	}
}

func TestByteStoreLoadRoundTrip(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("x")
	src := []byte{1, 2, 3, 4, 5}
	p.StoreBytes(10, src, id, 100)
	dst := make([]byte, 5)
	p.LoadBytes(10, dst, id, 100)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
}

func TestByteAccessWrapsAtPoolEnd(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("x")
	src := []byte{9, 8, 7, 6}
	p.StoreBytes(62, src, id, 0) // bytes 62,63 then wraps to 0,1
	dst := make([]byte, 4)
	p.LoadBytes(62, dst, id, 0)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[3] != 6 {
		t.Fatalf("wrapped load wrong: %v", dst)
	}
	head := make([]byte, 2)
	p.ReadRawBytes(0, head)
	if head[0] != 7 || head[1] != 6 {
		t.Fatalf("wrapped tail not at pool head: %v", head)
	}
}

// TestByteNegativeOffsetWraps checks the modulo mapping on both sides of
// the pool: negative offsets and offsets past the capacity land on the
// same physical bytes as their residue.
func TestByteNegativeOffsetWraps(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("x")
	p.StoreBytes(-3, []byte{1, 2, 3}, id, 0) // physical 61,62,63
	dst := make([]byte, 3)
	p.LoadBytes(61, dst, id, 0)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[2] != 3 {
		t.Fatalf("negative-offset store wrong: %v", dst)
	}
	for _, off := range []int{61 + 64, 61 + 3*64, -3 - 2*64} {
		p.LoadBytes(off, dst, id, 0)
		if err := dev.CheckFaults(); err != nil || dst[0] != 1 || dst[2] != 3 {
			t.Fatalf("offset %d: load %v (%v), want the bytes at 61", off, dst, err)
		}
	}
}

func TestByteFreeAndClaim(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("x")
	p.StoreBytes(60, make([]byte, 8), id, 0) // wraps
	if dev.LiveBytes() != 8 {
		t.Fatalf("live = %d, want 8", dev.LiveBytes())
	}
	p.FreeBytes(60, 8, id)
	if dev.LiveBytes() != 0 {
		t.Fatalf("live after free = %d", dev.LiveBytes())
	}
	// Claim pre-materialized data across the wrap.
	data := []byte{5, 6, 7, 8}
	p.WriteRawBytes(62, data)
	id2 := dev.NewTensorID("y")
	p.ClaimBytes(62, 4, id2, 40)
	dst := make([]byte, 4)
	p.LoadBytes(62, dst, id2, 40)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 5 || dst[3] != 8 {
		t.Fatalf("claimed bytes wrong: %v", dst)
	}
}

// TestBytePanicsBeyondCapacity checks that every access larger than the
// pool panics instead of wrapping onto itself, and that an access of
// exactly the capacity does not.
func TestBytePanicsBeyondCapacity(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("x")
	for name, f := range map[string]func(n int){
		"load":     func(n int) { p.LoadBytes(5, make([]byte, n), id, 0) },
		"store":    func(n int) { p.StoreBytes(5, make([]byte, n), id, 0) },
		"free":     func(n int) { p.FreeBytes(5, n, id) },
		"claim":    func(n int) { p.ClaimBytes(5, n, id, 0) },
		"raw read": func(n int) { p.ReadRawBytes(5, make([]byte, n)) },
		"raw write": func(n int) {
			p.WriteRawBytes(5, make([]byte, n))
		},
	} {
		f(64)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of 65 bytes from a 64-byte pool did not panic", name)
				}
			}()
			f(65)
		}()
	}
}

// TestByteAccessChargesOneModuloPerOp checks the boundary check's cost:
// one modulo per access, whether or not the access wraps.
func TestByteAccessChargesOneModuloPerOp(t *testing.T) {
	dev, p := newPool(t, 64)
	id := dev.NewTensorID("x")
	before := dev.Stats.DivModOps
	p.StoreBytes(0, make([]byte, 8), id, 0)
	p.LoadBytes(0, make([]byte, 8), id, 0)
	p.FreeBytes(0, 8, id)
	if got := dev.Stats.DivModOps - before; got != 3 {
		t.Errorf("modulo ops = %d, want 3 (one per access)", got)
	}
	before = dev.Stats.DivModOps
	p.StoreBytes(60, make([]byte, 8), id, 0)
	p.LoadBytes(-4, make([]byte, 8), id, 0)
	if got := dev.Stats.DivModOps - before; got != 2 {
		t.Errorf("wrapping accesses charged %d modulo ops, want 2", got)
	}
}

func TestByteQuickRoundTripRandomOffsets(t *testing.T) {
	dev, p := newPool(t, 256)
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 200; iter++ {
		id := dev.NewTensorID("q")
		n := 1 + rng.Intn(32)
		off := rng.Intn(1024) - 512 // exercise negative and wrapping offsets
		src := make([]byte, n)
		rng.Read(src)
		p.StoreBytes(off, src, id, 0)
		dst := make([]byte, n)
		p.LoadBytes(off, dst, id, 0)
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("iter %d: mismatch at %d (off %d len %d)", iter, i, off, n)
			}
		}
		p.FreeBytes(off, n, id)
	}
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dev.LiveBytes() != 0 {
		t.Errorf("live after random battery = %d", dev.LiveBytes())
	}
}

// TestAddrWrapsCircularly checks the logical-to-physical mapping of a
// pool at a nonzero base: offsets past the capacity and below zero land
// on the RAM address of their residue.
func TestAddrWrapsCircularly(t *testing.T) {
	const base, capBytes = 100, 48
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	p, err := NewPool(dev, base, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ off, phys int }{
		{0, 0}, {47, 47}, {48, 0}, {53, 5}, {3*48 + 7, 7}, {-1, 47}, {-48, 0}, {-50, 46},
	} {
		p.WriteRawBytes(c.off, []byte{byte(c.phys + 1)})
		got := make([]byte, 1)
		dev.ReadRaw(base+c.phys, got)
		if got[0] != byte(c.phys+1) {
			t.Errorf("offset %d: RAM[%d] = %d, want %d", c.off, base+c.phys, got[0], c.phys+1)
		}
	}
}

// TestAddrCountsModuloOps checks that the modulo charge of an access does
// not depend on how far its offset lies from the pool or on its length.
func TestAddrCountsModuloOps(t *testing.T) {
	dev, p := newPool(t, 60)
	id := dev.NewTensorID("x")
	for _, c := range []struct{ off, n int }{
		{7, 1}, {2, 60}, {59, 2}, {10*60 + 3, 5}, {-7*60 - 1, 60},
	} {
		before := dev.Stats.DivModOps
		p.StoreBytes(c.off, make([]byte, c.n), id, 0)
		if got := dev.Stats.DivModOps - before; got != 1 {
			t.Errorf("store of %d bytes at %d charged %d modulo ops, want 1", c.n, c.off, got)
		}
	}
}

// TestOversizedAccessPanics checks the limit on a pool whose capacity no
// power of two divides: an access of the whole pool is legal at any
// offset, wrapping included, and one byte more panics.
func TestOversizedAccessPanics(t *testing.T) {
	dev, p := newPool(t, 60)
	id := dev.NewTensorID("x")
	for name, f := range map[string]func(n int){
		"load":  func(n int) { p.LoadBytes(45, make([]byte, n), id, 0) },
		"store": func(n int) { p.StoreBytes(45, make([]byte, n), id, 0) },
		"free":  func(n int) { p.FreeBytes(45, n, id) },
	} {
		f(60)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of 61 bytes from a 60-byte pool did not panic", name)
				}
			}()
			f(61)
		}()
	}
}

// TestPtrCursor walks a kernel-style cursor over the pool in steps of a
// plan's segment size (24 B) that does not divide the pool (60 B). Once
// the cursor has wrapped, the byte it points at still holds an earlier
// element, so reading it as a later one is flagged; stepping back reads
// it clean, and freeing releases it.
func TestPtrCursor(t *testing.T) {
	const segBytes = 24
	dev, p := newPool(t, 60)
	id := dev.NewTensorID("x")
	off := 2 * segBytes
	p.StoreBytes(off, []byte{7}, id, 0)
	off += 5 * segBytes // 168: wraps twice onto physical byte 48 again
	dst := make([]byte, 1)
	p.LoadBytes(off, dst, id, 5*segBytes)
	if err := dev.CheckFaults(); err == nil {
		t.Fatal("expected wrong-elem fault reading a recycled byte")
	}
	dev.ResetViolations()
	off -= 5 * segBytes
	p.LoadBytes(off, dst, id, 0)
	if err := dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 {
		t.Errorf("cursor read %d, want 7", dst[0])
	}
	p.FreeBytes(off, 1, id)
	if dev.LiveBytes() != 0 {
		t.Errorf("live bytes after free = %d", dev.LiveBytes())
	}
}
