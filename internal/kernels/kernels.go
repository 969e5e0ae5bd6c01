// Package kernels implements the paper's segment-aware kernels (§5): fully
// connected, pointwise and general 2-D convolution, depthwise convolution,
// residual add, and the fused inverted-bottleneck module. Every kernel
// follows the five-step structure of the paper — load segment, compute,
// update output segment, free consumed input segments, boundary check —
// against the simulated MCU, with the output tensor streamed into pool
// space freed from the input at the offset solved by the planner.
//
// Golden (memory-unconstrained) reference implementations of every layer
// live in golden.go; the test suite proves the pool kernels bit-exact
// against them and proves the planner offsets are tight via the device's
// shadow state.
package kernels

import (
	"encoding/binary"
	"fmt"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
)

// Placement locates an activation tensor inside the circular pool.
type Placement struct {
	ID    mcu.TensorID
	Off   int // logical byte offset of element 0 in the pool
	Bytes int
}

// PlaceInput materializes data in the pool at logical byte offset off and
// claims it for a fresh tensor ID (the way a network input, or a previous
// layer's output, enters a kernel).
func PlaceInput(c *intrin.Ctx, name string, data []int8, off int) Placement {
	id := c.Dev.NewTensorID(name)
	c.Pool.WriteRawBytes(off, intrin.AsBytes(data))
	c.Pool.ClaimBytes(off, len(data), id, 0)
	return Placement{ID: id, Off: off, Bytes: len(data)}
}

// Extract copies a placed tensor's bytes out of the pool as int8 (no
// traffic charged; harness-side readback).
func Extract(c *intrin.Ctx, pl Placement) []int8 {
	out := make([]int8, pl.Bytes)
	c.Pool.ReadRawBytes(pl.Off, intrin.AsBytes(out))
	return out
}

// FreeAll releases the whole placement (e.g. dropping a network input).
func FreeAll(c *intrin.Ctx, pl Placement) {
	c.Pool.FreeBytes(pl.Off, pl.Bytes, pl.ID)
}

// FlashImage is a unit's constant tensors prebuilt in the byte layout
// PackInt8 and PackInt32 store them in, back to back in the order given.
// It is immutable once built, so one image can be loaded into any number
// of devices, concurrently.
type FlashImage struct {
	data  []byte
	parts []mcu.FlashRef // each tensor's location relative to the image start
}

// NewFlashImage lays out each layer's int8 weights followed by its int32
// bias: ws[0], bs[0], ws[1], bs[1], ... ws and bs must be the same length.
func NewFlashImage(ws [][]int8, bs [][]int32) *FlashImage {
	n := 0
	for i := range ws {
		n += len(ws[i]) + 4*len(bs[i])
	}
	im := &FlashImage{data: make([]byte, n), parts: make([]mcu.FlashRef, 0, 2*len(ws))}
	off := 0
	for i, w := range ws {
		im.parts = append(im.parts, mcu.FlashRef{Off: off, Len: len(w)})
		off += copy(im.data[off:], intrin.AsBytes(w))
		im.parts = append(im.parts, mcu.FlashRef{Off: off, Len: 4 * len(bs[i])})
		for _, v := range bs[i] {
			binary.LittleEndian.PutUint32(im.data[off:], uint32(v))
			off += 4
		}
	}
	return im
}

// Bytes returns the image size.
func (im *FlashImage) Bytes() int { return len(im.data) }

// Load copies the image into dev's Flash with one FlashAlloc and returns
// where it landed. It allocates nothing on the host.
func (im *FlashImage) Load(dev *mcu.Device) (mcu.FlashRef, error) { return dev.FlashAlloc(im.data) }

// Part locates tensor i of an image that Load placed at base.
func (im *FlashImage) Part(base mcu.FlashRef, i int) mcu.FlashRef {
	r := im.parts[i]
	r.Off += base.Off
	return r
}

// PackInt8 stores int8 weights into Flash.
func PackInt8(dev *mcu.Device, data []int8) (mcu.FlashRef, error) {
	return dev.FlashAlloc(intrin.AsBytes(data))
}

// PackInt32 stores little-endian int32 values (bias vectors) into Flash.
func PackInt32(dev *mcu.Device, data []int32) (mcu.FlashRef, error) {
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return dev.FlashAlloc(buf)
}

func checkSize(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("kernels: %s size %d, want %d", what, got, want)
	}
	return nil
}
