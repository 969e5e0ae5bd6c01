package mcu

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomOps drives d through n seeded random operations: tensor
// registration, claims, tagged writes, reads and frees, raw writes, Flash
// allocation and Flash views. Addresses fall in the low span bytes of RAM,
// except for about one access in fifty, which straddles the end of RAM.
func randomOps(d *Device, seed int64, n, span int) {
	rng := rand.New(rand.NewSource(seed))
	ids := []TensorID{d.NewTensorID("t0")}
	buf := make([]byte, 64)
	addr := func(k int) int {
		if rng.Intn(50) == 0 {
			return d.RAMSize() - k/2
		}
		return rng.Intn(span - k)
	}
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
	}
	for i := 0; i < n; i++ {
		b := buf[:1+rng.Intn(len(buf))]
		id := ids[rng.Intn(len(ids))]
		elem := rng.Intn(1000)
		switch rng.Intn(8) {
		case 0:
			ids = append(ids, d.NewTensorID(fmt.Sprintf("t%d", len(ids))))
		case 1:
			d.ClaimRegion(addr(len(b)), len(b), id, elem)
		case 2:
			fill(b)
			d.WriteTagged(addr(len(b)), b, id, elem)
		case 3:
			d.ReadTagged(addr(len(b)), b, id, elem)
		case 4:
			d.FreeTagged(addr(len(b)), len(b), id)
		case 5:
			fill(b)
			d.Write(addr(len(b)), b)
		case 6:
			fill(b)
			_, _ = d.FlashAlloc(b) // exhaustion is part of the sequence
		case 7:
			d.FlashView(rng.Intn(d.FlashUsed()+8), len(b)) // may run past the end
		}
	}
}

// TestResetMatchesNew runs one random operation sequence on a fresh device
// and on a device dirtied by a different sequence and then Reset: the two
// must end in the same state.
func TestResetMatchesNew(t *testing.T) {
	p := CortexM4()
	cases := []struct {
		dirtyFlash, flash int
		dirtySpan         int
	}{
		{dirtyFlash: 4096, flash: 1024, dirtySpan: p.RAMBytes()}, // Flash shrinks
		{dirtyFlash: 256, flash: 4096, dirtySpan: p.RAMBytes()},  // Flash grows past its capacity
		{dirtyFlash: 2048, flash: 2048, dirtySpan: 8192},         // small touched extent
	}
	for ci, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("case%d/seed%d", ci, seed), func(t *testing.T) {
				reused := New(p, tc.dirtyFlash)
				reused.EnableTrace(3)
				randomOps(reused, 1000+seed, 3000, tc.dirtySpan)
				reused.Reset(p, tc.flash)
				if !reflect.DeepEqual(reused, New(p, tc.flash)) {
					t.Fatal("a Reset device differs from a New one before any operation")
				}

				fresh := New(p, tc.flash)
				randomOps(fresh, seed, 3000, 16384)
				randomOps(reused, seed, 3000, 16384)

				if fresh.Stats != reused.Stats {
					t.Errorf("Stats: fresh %+v, reset %+v", fresh.Stats, reused.Stats)
				}
				fv, fn := fresh.Violations()
				rv, rn := reused.Violations()
				if fn != rn || !reflect.DeepEqual(fv, rv) {
					t.Errorf("violations: fresh %d %v, reset %d %v", fn, fv, rn, rv)
				}
				if fresh.LiveBytes() != reused.LiveBytes() || fresh.PeakBytes() != reused.PeakBytes() {
					t.Errorf("live/peak: fresh %d/%d, reset %d/%d",
						fresh.LiveBytes(), fresh.PeakBytes(), reused.LiveBytes(), reused.PeakBytes())
				}
				fram := make([]byte, p.RAMBytes())
				rram := make([]byte, p.RAMBytes())
				fresh.ReadRaw(0, fram)
				reused.ReadRaw(0, rram)
				if !bytes.Equal(fram, rram) {
					t.Error("RAM contents differ")
				}
				for id := FreeOwner; id <= fresh.nextTensorID; id++ {
					if f, r := fresh.TensorName(id), reused.TensorName(id); f != r {
						t.Errorf("TensorName(%d): fresh %q, reset %q", id, f, r)
					}
				}
				// Shadow cells, Flash bytes and every other field.
				if !reflect.DeepEqual(fresh, reused) {
					t.Error("device state differs")
				}
			})
		}
	}
}

// TestResetForgetsOwnership: a tagged read of bytes a tensor owned before
// Reset records ReadFreed, so stale shadow never hides a fault, and the
// stale data is gone.
func TestResetForgetsOwnership(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("stale")
	d.WriteTagged(100, []byte{1, 2, 3, 4}, id, 0)
	d.Reset(CortexM4(), 1<<20)
	buf := make([]byte, 4)
	d.ReadTagged(100, buf, id, 0)
	vs, n := d.Violations()
	if n != 4 {
		t.Fatalf("violations = %d, want 4", n)
	}
	for _, v := range vs {
		if v.Kind != ReadFreed {
			t.Errorf("violation %v, want read-freed", v)
		}
	}
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Errorf("stale RAM survived Reset: %v", buf)
	}
}

// TestResetShrinksFlash: after a Reset to a smaller Flash, a view past the
// new size is out of bounds even though the old contents were longer.
func TestResetShrinksFlash(t *testing.T) {
	d := New(CortexM4(), 1024)
	if _, err := d.FlashAlloc(bytes.Repeat([]byte{7}, 1024)); err != nil {
		t.Fatal(err)
	}
	d.Reset(CortexM4(), 100)
	if v := d.FlashView(90, 20); v != nil {
		t.Errorf("view past the new Flash size returned %d bytes", len(v))
	}
	vs, n := d.Violations()
	if n != 1 || vs[0].Kind != OutOfBounds {
		t.Errorf("violations = %d %v, want one out-of-bounds", n, vs)
	}
	if d.Stats.FlashReadBytes != 0 {
		t.Errorf("out-of-bounds view counted %d bytes", d.Stats.FlashReadBytes)
	}
	if !bytes.Equal(d.FlashView(0, 100), make([]byte, 100)) {
		t.Error("old Flash contents survived Reset")
	}
	if _, err := d.FlashAlloc(make([]byte, 101)); err == nil {
		t.Error("FlashAlloc beyond the new size succeeded")
	}
}

func TestResetToOtherRAMSizePanics(t *testing.T) {
	d := New(CortexM4(), 0)
	defer func() {
		if recover() == nil {
			t.Error("Reset to a profile with a different RAM size did not panic")
		}
	}()
	d.Reset(CortexM7(), 0)
}
