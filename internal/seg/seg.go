// Package seg implements the paper's circular memory pool (§4): a window
// of device RAM virtualized as one circular buffer, addressed by logical
// byte offset modulo the pool length. Every access pays one modulo
// operation ("addr = addr % MemCap"), charged to the device's cycle model;
// that is the latency cost the paper's segment-size selection rule (§5.3)
// trades against footprint.
//
// Segments are a planner concept: each kernel's plan divides the pool
// into its own segment size (plan.Plan.SegBytes) and expresses gaps in
// them, but the pool itself is byte-granular. So one pool can host units
// whose segment sizes differ and need not divide its capacity.
package seg

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/mcu"
)

// Pool is a circular buffer carved out of device RAM.
type Pool struct {
	dev      *mcu.Device
	base     int // RAM address of logical byte 0
	capBytes int
}

// NewPool carves a circular pool out of [base, base+capBytes) of device
// RAM. capBytes must be positive and the window must lie inside RAM.
func NewPool(dev *mcu.Device, base, capBytes int) (*Pool, error) {
	if capBytes <= 0 {
		return nil, fmt.Errorf("seg: capacity %d must be positive", capBytes)
	}
	if base < 0 || base+capBytes > dev.RAMSize() {
		return nil, fmt.Errorf("seg: pool [%d,%d) exceeds RAM size %d", base, base+capBytes, dev.RAMSize())
	}
	return &Pool{dev: dev, base: base, capBytes: capBytes}, nil
}

// splitRun invokes fn over the at-most-two physical runs covering the
// logical byte range [off, off+n), charging one modulo operation for
// mapping off into [0, capBytes).
func (p *Pool) splitRun(off, n int, fn func(physAddr, chunkOff, chunkLen int)) {
	if n > p.capBytes {
		panic(fmt.Sprintf("seg: byte access of %d exceeds pool capacity %d", n, p.capBytes))
	}
	p.dev.CountDivMod(1)
	start := off % p.capBytes
	if start < 0 {
		start += p.capBytes
	}
	first := min(n, p.capBytes-start)
	fn(p.base+start, 0, first)
	if first < n {
		fn(p.base, first, n-first)
	}
}

// LoadBytes reads len(dst) bytes at logical byte offset off with shadow
// verification against (owner, elem0...).
func (p *Pool) LoadBytes(off int, dst []byte, owner mcu.TensorID, elem0 int) {
	p.splitRun(off, len(dst), func(addr, co, cl int) {
		p.dev.ReadTagged(addr, dst[co:co+cl], owner, elem0+co)
	})
}

// StoreBytes writes src at logical byte offset off, claiming the bytes.
// Overwriting another tensor's bytes is legal; that tensor's later reads
// are flagged.
func (p *Pool) StoreBytes(off int, src []byte, owner mcu.TensorID, elem0 int) {
	p.splitRun(off, len(src), func(addr, co, cl int) {
		p.dev.WriteTagged(addr, src[co:co+cl], owner, elem0+co)
	})
}

// FreeBytes releases n bytes at logical byte offset off.
func (p *Pool) FreeBytes(off, n int, owner mcu.TensorID) {
	p.splitRun(off, n, func(addr, co, cl int) {
		p.dev.FreeTagged(addr, cl, owner)
	})
}

// ClaimBytes tags n bytes at logical byte offset off as owned, tracing
// element indices from elem0, without traffic (tensor placement).
func (p *Pool) ClaimBytes(off, n int, owner mcu.TensorID, elem0 int) {
	p.splitRun(off, n, func(addr, co, cl int) {
		p.dev.ClaimRegion(addr, cl, owner, elem0+co)
	})
}

// WriteRawBytes materializes data at logical byte offset without tagging
// or traffic accounting (test/setup helper).
func (p *Pool) WriteRawBytes(off int, data []byte) {
	p.splitRun(off, len(data), func(addr, co, cl int) {
		p.dev.WriteRaw(addr, data[co:co+cl])
	})
}

// ReadRawBytes copies the len(dst) bytes at logical byte offset off into
// dst without tag checks or traffic (result extraction helper).
func (p *Pool) ReadRawBytes(off int, dst []byte) {
	p.splitRun(off, len(dst), func(addr, co, cl int) {
		p.dev.ReadRaw(addr, dst[co:co+cl])
	})
}
