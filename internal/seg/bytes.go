package seg

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/mcu"
)

// Byte-granular circular access. The planner reasons in segments, but
// fused kernels move pixel vectors whose size need not divide the segment
// size (e.g. Cin=16, Cout=24). These methods address the same circular
// pool by byte offset, wrapping at the pool boundary; each access pays one
// modulo operation, exactly like the segment-granular path.

// wrapByte maps a logical byte offset into [0, CapBytes), counting the
// modulo operation.
func (p *Pool) wrapByte(off int) int {
	p.dev.CountDivMod(1)
	c := p.CapBytes()
	m := off % c
	if m < 0 {
		m += c
	}
	return m
}

// splitRun invokes fn over the at-most-two physical runs covering the
// logical byte range [off, off+n).
func (p *Pool) splitRun(off, n int, fn func(physAddr, chunkOff, chunkLen int)) {
	if n > p.CapBytes() {
		panic(fmt.Sprintf("seg: byte access of %d exceeds pool capacity %d", n, p.CapBytes()))
	}
	start := p.wrapByte(off)
	first := n
	if start+first > p.CapBytes() {
		first = p.CapBytes() - start
	}
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
