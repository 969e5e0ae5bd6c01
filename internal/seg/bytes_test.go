package seg

import (
	"math/rand"
	"testing"
)

func TestByteStoreLoadRoundTrip(t *testing.T) {
	dev, p := newPool(t, 64, 16)
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
	dev, p := newPool(t, 64, 16)
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

func TestByteNegativeOffsetWraps(t *testing.T) {
	dev, p := newPool(t, 64, 16)
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
}

func TestByteFreeAndClaim(t *testing.T) {
	dev, p := newPool(t, 64, 16)
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

func TestBytePanicsBeyondCapacity(t *testing.T) {
	_, p := newPool(t, 64, 16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on access larger than the pool")
		}
	}()
	p.ReadRawBytes(0, make([]byte, 65))
}

func TestByteAccessChargesOneModuloPerOp(t *testing.T) {
	dev, p := newPool(t, 64, 16)
	id := dev.NewTensorID("x")
	before := dev.Stats.DivModOps
	p.StoreBytes(0, make([]byte, 8), id, 0)
	p.LoadBytes(0, make([]byte, 8), id, 0)
	p.FreeBytes(0, 8, id)
	if got := dev.Stats.DivModOps - before; got != 3 {
		t.Errorf("modulo ops = %d, want 3 (one per access)", got)
	}
}

func TestByteQuickRoundTripRandomOffsets(t *testing.T) {
	dev, p := newPool(t, 256, 16)
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
