package mcu

import "fmt"

// TensorID identifies a logical tensor for shadow-state tracking.
// ID 0 is reserved for "free / untracked".
type TensorID int32

// FreeOwner is the shadow owner of unclaimed RAM bytes.
const FreeOwner TensorID = 0

// cell is the shadow metadata of one RAM byte.
type cell struct {
	owner TensorID
	elem  int32 // element index within the owner tensor
}

// ViolationKind classifies a detected memory-safety fault.
type ViolationKind int

const (
	// ReadClobbered: a tagged read found a byte owned by a different
	// tensor — the paper's "silent error" when the output overwrites
	// still-live input segments.
	ReadClobbered ViolationKind = iota
	// ReadFreed: a tagged read found a byte already freed.
	ReadFreed
	// ReadWrongElem: owner matches but the element index does not —
	// the segment was recycled for a different part of the same tensor.
	ReadWrongElem
	// OutOfBounds: an access fell outside the RAM or Flash array.
	OutOfBounds
	// DoubleFree: freeing a byte not owned by the caller.
	DoubleFree
)

func (k ViolationKind) String() string {
	switch k {
	case ReadClobbered:
		return "read-clobbered"
	case ReadFreed:
		return "read-freed"
	case ReadWrongElem:
		return "read-wrong-elem"
	case OutOfBounds:
		return "out-of-bounds"
	case DoubleFree:
		return "double-free"
	}
	return fmt.Sprintf("violation(%d)", int(k))
}

// Violation records one detected fault.
type Violation struct {
	Kind      ViolationKind
	Addr      int
	WantOwner TensorID
	GotOwner  TensorID
	WantElem  int32
	GotElem   int32
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at addr %d: want tensor %d elem %d, got tensor %d elem %d",
		v.Kind, v.Addr, v.WantOwner, v.WantElem, v.GotOwner, v.GotElem)
}

const maxRecordedViolations = 64

// Device is a simulated microcontroller: RAM with shadow state, Flash,
// and operation counters evaluated by the Profile's cycle/energy model.
// Device is not safe for concurrent use, matching the single-core,
// no-OS execution model of the target hardware.
type Device struct {
	Profile Profile
	Stats   Stats

	ram       []byte
	shadow    []cell
	touched   int // RAM and shadow are zero from here up
	flash     []byte
	flashUsed int

	nextTensorID TensorID
	tensorNames  map[TensorID]string

	violations     []Violation
	violationCount int

	liveBytes int // currently claimed RAM bytes
	peakBytes int // watermark of claimed RAM bytes

	traceEvery int   // sample the live count every N mutating ops
	traceCount int   // mutating ops since EnableTrace
	trace      []int // live-byte samples
}

// New creates a Device with the profile's RAM size and the given Flash
// capacity in bytes.
func New(p Profile, flashBytes int) *Device {
	d := &Device{
		ram:         make([]byte, p.RAMBytes()),
		shadow:      make([]cell, p.RAMBytes()),
		tensorNames: map[TensorID]string{},
	}
	d.Reset(p, flashBytes)
	return d
}

// Reset returns the device to exactly the state New(p, flashBytes)
// builds, reusing its RAM, shadow and Flash arrays. Only the RAM below the
// highest end any write or claim has reached, and the used part of Flash,
// can be nonzero, so only they are cleared. p must have the device's RAM
// size; a different size is a caller bug and panics.
func (d *Device) Reset(p Profile, flashBytes int) {
	if p.RAMBytes() != len(d.ram) {
		panic(fmt.Sprintf("mcu: Reset to %d bytes of RAM on a %d-byte device", p.RAMBytes(), len(d.ram)))
	}
	clear(d.ram[:d.touched])
	clear(d.shadow[:d.touched])
	clear(d.flash[:d.flashUsed])
	if cap(d.flash) < flashBytes {
		d.flash = make([]byte, flashBytes)
	}
	d.flash = d.flash[:flashBytes]
	clear(d.tensorNames)
	*d = Device{
		Profile:      p,
		ram:          d.ram,
		shadow:       d.shadow,
		flash:        d.flash,
		nextTensorID: 1,
		tensorNames:  d.tensorNames,
	}
}

// RAMSize returns the RAM capacity in bytes.
func (d *Device) RAMSize() int { return len(d.ram) }

// NewTensorID registers a logical tensor for shadow tracking.
func (d *Device) NewTensorID(name string) TensorID {
	id := d.nextTensorID
	d.nextTensorID++
	d.tensorNames[id] = name
	return id
}

// TensorName returns the registered name for an ID (for diagnostics).
func (d *Device) TensorName(id TensorID) string {
	if n, ok := d.tensorNames[id]; ok {
		return n
	}
	return fmt.Sprintf("tensor#%d", id)
}

func (d *Device) record(v Violation) {
	d.violationCount++
	if len(d.violations) < maxRecordedViolations {
		d.violations = append(d.violations, v)
	}
}

// Violations returns the recorded faults (capped) and the total count.
func (d *Device) Violations() ([]Violation, int) {
	return d.violations, d.violationCount
}

// ResetViolations clears the fault log.
func (d *Device) ResetViolations() {
	d.violations = nil
	d.violationCount = 0
}

// CheckFaults returns an error summarizing violations, or nil if clean.
func (d *Device) CheckFaults() error {
	if d.violationCount == 0 {
		return nil
	}
	first := d.violations[0]
	return fmt.Errorf("mcu: %d memory violations, first: %s (owner %q vs %q)",
		d.violationCount, first, d.TensorName(first.WantOwner), d.TensorName(first.GotOwner))
}

// inRAM validates an address range.
func (d *Device) inRAM(addr, n int) bool {
	return addr >= 0 && n >= 0 && addr+n <= len(d.ram)
}

// touch extends the touched extent over [0, end) before a write or claim.
func (d *Device) touch(end int) {
	if end > d.touched {
		d.touched = end
	}
}

// --- Raw (untracked) access: used by baseline kernels. ---

// Read copies n bytes at addr into dst, counting RAM read traffic.
func (d *Device) Read(addr int, dst []byte) {
	if !d.inRAM(addr, len(dst)) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	copy(dst, d.ram[addr:addr+len(dst)])
	d.Stats.RAMReadBytes += uint64(len(dst))
}

// Write copies src into RAM at addr, counting RAM write traffic.
func (d *Device) Write(addr int, src []byte) {
	if !d.inRAM(addr, len(src)) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	d.touch(addr + len(src))
	copy(d.ram[addr:addr+len(src)], src)
	d.Stats.RAMWriteBytes += uint64(len(src))
}

// ReadRaw copies RAM bytes without counting traffic (setup/extraction
// helper for tests and harnesses; not part of the modeled execution).
func (d *Device) ReadRaw(addr int, dst []byte) {
	if !d.inRAM(addr, len(dst)) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	copy(dst, d.ram[addr:addr+len(dst)])
}

// WriteRaw copies bytes into RAM without counting traffic (setup helper).
func (d *Device) WriteRaw(addr int, src []byte) {
	if !d.inRAM(addr, len(src)) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	d.touch(addr + len(src))
	copy(d.ram[addr:addr+len(src)], src)
}

// --- Tagged access: used by vMCU segment kernels. ---

// ClaimRegion tags [addr, addr+n) as owned by tensor id with element
// indices starting at elem0, without touching data or counting traffic
// (initial placement of an already-materialized tensor).
func (d *Device) ClaimRegion(addr, n int, id TensorID, elem0 int) {
	if !d.inRAM(addr, n) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	d.touch(addr + n)
	for i := 0; i < n; i++ {
		if d.shadow[addr+i].owner == FreeOwner {
			d.liveBytes++
		}
		d.shadow[addr+i] = cell{owner: id, elem: int32(elem0 + i)}
	}
	if d.liveBytes > d.peakBytes {
		d.peakBytes = d.liveBytes
	}
}

// WriteTagged writes src at addr and tags the bytes as (id, elem0...).
// Overwriting bytes owned by another tensor is legal — that is the entire
// point of segment overlapping — but the previous owner's subsequent tagged
// reads of those bytes will be flagged.
func (d *Device) WriteTagged(addr int, src []byte, id TensorID, elem0 int) {
	if !d.inRAM(addr, len(src)) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	d.touch(addr + len(src))
	copy(d.ram[addr:addr+len(src)], src)
	for i := range src {
		if d.shadow[addr+i].owner == FreeOwner {
			d.liveBytes++
		}
		d.shadow[addr+i] = cell{owner: id, elem: int32(elem0 + i)}
	}
	if d.liveBytes > d.peakBytes {
		d.peakBytes = d.liveBytes
	}
	d.Stats.RAMWriteBytes += uint64(len(src))
	d.traceTick()
}

// ReadTagged reads n bytes at addr into dst, asserting every byte is still
// owned by tensor id with consecutive element indices from elem0. Each
// mismatched byte records a violation; data is returned regardless, exactly
// like real hardware would hand back clobbered memory. A tight loop finds
// the first mismatch; bytes are classified one by one only from there on.
func (d *Device) ReadTagged(addr int, dst []byte, id TensorID, elem0 int) {
	if !d.inRAM(addr, len(dst)) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	copy(dst, d.ram[addr:addr+len(dst)])
	shadow := d.shadow[addr:][:len(dst)]
	first := len(shadow)
	for i, c := range shadow {
		if c.owner != id || c.elem != int32(elem0+i) {
			first = i
			break
		}
	}
	for i := first; i < len(dst); i++ {
		c := shadow[i]
		switch {
		case c.owner == id && c.elem == int32(elem0+i):
			// ok
		case c.owner == FreeOwner:
			d.record(Violation{Kind: ReadFreed, Addr: addr + i,
				WantOwner: id, WantElem: int32(elem0 + i)})
		case c.owner != id:
			d.record(Violation{Kind: ReadClobbered, Addr: addr + i,
				WantOwner: id, GotOwner: c.owner,
				WantElem: int32(elem0 + i), GotElem: c.elem})
		default:
			d.record(Violation{Kind: ReadWrongElem, Addr: addr + i,
				WantOwner: id, GotOwner: c.owner,
				WantElem: int32(elem0 + i), GotElem: c.elem})
		}
	}
	d.Stats.RAMReadBytes += uint64(len(dst))
}

// FreeTagged releases [addr, addr+n) owned by id. Bytes already stolen by
// a later tensor are left untouched (they are live for the new owner);
// bytes owned by an unrelated tensor record a DoubleFree.
func (d *Device) FreeTagged(addr, n int, id TensorID) {
	if !d.inRAM(addr, n) {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return
	}
	for i := 0; i < n; i++ {
		c := d.shadow[addr+i]
		switch c.owner {
		case id:
			d.shadow[addr+i] = cell{}
			d.liveBytes--
		case FreeOwner:
			d.record(Violation{Kind: DoubleFree, Addr: addr + i, WantOwner: id})
		default:
			// Stolen by a newer tensor: freeing is a no-op, by design.
		}
	}
	d.traceTick()
}

// EnableTrace starts sampling the live-byte count once every sampleEvery
// tagged writes/frees, for memory-timeline visualization (the occupancy
// evolution the paper's Figure 1 illustrates step by step).
func (d *Device) EnableTrace(sampleEvery int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	d.traceEvery = sampleEvery
	d.traceCount = 0
	d.trace = d.trace[:0]
}

// TraceSamples returns the recorded live-byte samples.
func (d *Device) TraceSamples() []int {
	return append([]int(nil), d.trace...)
}

func (d *Device) traceTick() {
	if d.traceEvery == 0 {
		return
	}
	d.traceCount++
	if d.traceCount%d.traceEvery == 0 {
		d.trace = append(d.trace, d.liveBytes)
	}
}

// LiveBytes returns the currently claimed RAM bytes.
func (d *Device) LiveBytes() int { return d.liveBytes }

// PeakBytes returns the high-watermark of claimed RAM bytes.
func (d *Device) PeakBytes() int { return d.peakBytes }

// ResetPeak restarts the watermark from the current live amount.
func (d *Device) ResetPeak() { d.peakBytes = d.liveBytes }

// --- Flash. ---

// FlashRef locates a constant blob in Flash.
type FlashRef struct {
	Off int
	Len int
}

// FlashAlloc copies data into Flash and returns its location. Weights and
// biases live here; per the paper they are excluded from RAM planning.
func (d *Device) FlashAlloc(data []byte) (FlashRef, error) {
	if d.flashUsed+len(data) > len(d.flash) {
		return FlashRef{}, fmt.Errorf("mcu: flash exhausted (%d + %d > %d)",
			d.flashUsed, len(data), len(d.flash))
	}
	ref := FlashRef{Off: d.flashUsed, Len: len(data)}
	copy(d.flash[ref.Off:], data)
	d.flashUsed += len(data)
	return ref, nil
}

// FlashRead copies n bytes from Flash at off into dst, counting traffic.
func (d *Device) FlashRead(off int, dst []byte) {
	copy(dst, d.FlashView(off, len(dst)))
}

// FlashView returns the n Flash bytes at off without copying them,
// counting the same read traffic as FlashRead. Callers must not write
// through the view. An out-of-range request records an OutOfBounds
// violation, counts no traffic, and returns nil.
func (d *Device) FlashView(off, n int) []byte {
	if off < 0 || n < 0 || off+n > len(d.flash) {
		d.record(Violation{Kind: OutOfBounds, Addr: off})
		return nil
	}
	d.Stats.FlashReadBytes += uint64(n)
	return d.flash[off : off+n : off+n]
}

// FlashSize returns the Flash capacity in bytes.
func (d *Device) FlashSize() int { return len(d.flash) }

// FlashUsed returns the bytes of Flash currently allocated.
func (d *Device) FlashUsed() int { return d.flashUsed }

// --- Op accounting hooks used by the intrinsics layer. ---

// CountMACs adds n multiply-accumulates.
func (d *Device) CountMACs(n int) { d.Stats.MACs += uint64(n) }

// CountALU adds n generic ALU operations.
func (d *Device) CountALU(n int) { d.Stats.ALUOps += uint64(n) }

// CountDivMod adds n modulo/divide operations (circular addressing).
func (d *Device) CountDivMod(n int) { d.Stats.DivModOps += uint64(n) }

// CountBranches adds n taken branches.
func (d *Device) CountBranches(n int) { d.Stats.Branches += uint64(n) }

// CountCalls adds n function-call overheads.
func (d *Device) CountCalls(n int) { d.Stats.Calls += uint64(n) }
