// Package mcu simulates the microcontroller substrate the paper evaluates
// on: a byte-addressable RAM with no cache and no OS, a read-only Flash for
// weights, ARM DSP-extension SIMD semantics (SMLAD/SADD16/PKHBT), and a
// cycle/energy model for the two boards used in the paper
// (STM32-F411RE, Cortex-M4, 128 KB RAM; STM32-F767ZI, Cortex-M7, 512 KB).
//
// The simulator's RAM carries shadow metadata per byte (owning tensor and
// element index) so that the "silent error in correctness" the
// paper warns about — an output segment overwriting an input segment that
// is still needed — is detected and reported instead of silently corrupting
// results. This is the mechanism the test suite uses to prove the ILP
// offsets of the planner are both safe and tight.
package mcu

// Profile models one MCU core: its clock, the cycle cost of each operation
// class, and an energy model (active core power plus per-access memory
// energy). The absolute constants are calibrated to public STM32 datasheet
// figures; the evaluation relies on relative behaviour between systems that
// share a profile, exactly as the paper's energy discussion does.
type Profile struct {
	Name    string
	ClockHz float64
	RAMKB   int // on-chip SRAM capacity

	// Cycle cost per unit of work.
	CyclesPerRAMByte   float64 // SRAM load/store, amortized per byte
	CyclesPerFlashByte float64 // Flash read (with accelerator), per byte
	CyclesPerMAC       float64 // int8 multiply-accumulate (via SMLAD pairs)
	CyclesPerALU       float64 // generic ALU op (add, shift, pack)
	CyclesPerDivMod    float64 // UDIV+MLS sequence for modulo addressing
	CyclesPerBranch    float64 // taken branch with pipeline refill
	CyclesPerCall      float64 // function call overhead (kernel invocation)

	// Energy model.
	CorePowerWatt  float64 // active core + regulator power
	RAMJoulePerB   float64 // incremental SRAM access energy per byte
	FlashJoulePerB float64 // incremental Flash access energy per byte
}

// CortexM4 approximates the STM32-F411RE used for the 128 KB experiments
// (Figures 7 and 9): single-issue ARMv7E-M with 1-cycle SMLAD.
func CortexM4() Profile {
	return Profile{
		Name:               "STM32-F411RE (Cortex-M4)",
		ClockHz:            100e6,
		RAMKB:              128,
		CyclesPerRAMByte:   0.5, // 32-bit LDR/STR = 2 cycles per 4 bytes
		CyclesPerFlashByte: 1.0, // ART accelerator hides most wait states
		CyclesPerMAC:       0.5, // SMLAD: 1 cycle, 2 MACs
		CyclesPerALU:       1.0,
		CyclesPerDivMod:    8.0, // UDIV (2-12) + MLS
		CyclesPerBranch:    2.0,
		CyclesPerCall:      30.0,
		CorePowerWatt:      0.110, // ~33 mA @ 3.3 V, run mode
		RAMJoulePerB:       20e-12,
		FlashJoulePerB:     60e-12,
	}
}

// CortexM7 approximates the STM32-F767ZI used for the 512 KB experiments
// (Figures 8 and 10): dual-issue ARMv7E-M core at 216 MHz.
func CortexM7() Profile {
	return Profile{
		Name:               "STM32-F767ZI (Cortex-M7)",
		ClockHz:            216e6,
		RAMKB:              512,
		CyclesPerRAMByte:   0.25, // dual-issue 32-bit accesses, DTCM
		CyclesPerFlashByte: 0.5,
		CyclesPerMAC:       0.25, // SMLAD dual-issues with loads
		CyclesPerALU:       0.5,
		CyclesPerDivMod:    5.0,
		CyclesPerBranch:    1.5,
		CyclesPerCall:      25.0,
		CorePowerWatt:      0.335, // ~100 mA @ 3.3 V
		RAMJoulePerB:       20e-12,
		FlashJoulePerB:     60e-12,
	}
}

// RAMBytes returns the RAM capacity in bytes.
func (p Profile) RAMBytes() int { return p.RAMKB * 1024 }

// Stats accumulates operation counts by class. The cycle and energy models
// are pure functions of these counts, which makes runs reproducible and
// lets tests reason about exact deltas (e.g. im2col's extra RAM traffic).
type Stats struct {
	RAMReadBytes   uint64
	RAMWriteBytes  uint64
	FlashReadBytes uint64
	MACs           uint64
	ALUOps         uint64
	DivModOps      uint64
	Branches       uint64
	Calls          uint64
	// StallCycles are pipeline-stall cycles charged directly (e.g. the
	// load-use and issue hazards of partially-unrolled reduction loops,
	// the paper's explanation for TinyEngine's latency gap). vMCU kernels
	// fully unroll and charge none.
	StallCycles uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.RAMReadBytes += o.RAMReadBytes
	s.RAMWriteBytes += o.RAMWriteBytes
	s.FlashReadBytes += o.FlashReadBytes
	s.MACs += o.MACs
	s.ALUOps += o.ALUOps
	s.DivModOps += o.DivModOps
	s.Branches += o.Branches
	s.Calls += o.Calls
	s.StallCycles += o.StallCycles
}

// Sub returns s - o, useful for measuring a region between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		RAMReadBytes:   s.RAMReadBytes - o.RAMReadBytes,
		RAMWriteBytes:  s.RAMWriteBytes - o.RAMWriteBytes,
		FlashReadBytes: s.FlashReadBytes - o.FlashReadBytes,
		MACs:           s.MACs - o.MACs,
		ALUOps:         s.ALUOps - o.ALUOps,
		DivModOps:      s.DivModOps - o.DivModOps,
		Branches:       s.Branches - o.Branches,
		Calls:          s.Calls - o.Calls,
		StallCycles:    s.StallCycles - o.StallCycles,
	}
}

// Cycles evaluates the cycle model for these counts under profile p.
func (s Stats) Cycles(p Profile) float64 {
	return float64(s.RAMReadBytes+s.RAMWriteBytes)*p.CyclesPerRAMByte +
		float64(s.FlashReadBytes)*p.CyclesPerFlashByte +
		float64(s.MACs)*p.CyclesPerMAC +
		float64(s.ALUOps)*p.CyclesPerALU +
		float64(s.DivModOps)*p.CyclesPerDivMod +
		float64(s.Branches)*p.CyclesPerBranch +
		float64(s.Calls)*p.CyclesPerCall +
		float64(s.StallCycles)
}

// LatencySeconds converts the cycle count to wall-clock seconds.
func (s Stats) LatencySeconds(p Profile) float64 {
	return s.Cycles(p) / p.ClockHz
}

// EnergyJoules evaluates the energy model: core power over the run time
// plus incremental memory access energy.
func (s Stats) EnergyJoules(p Profile) float64 {
	return s.LatencySeconds(p)*p.CorePowerWatt +
		float64(s.RAMReadBytes+s.RAMWriteBytes)*p.RAMJoulePerB +
		float64(s.FlashReadBytes)*p.FlashJoulePerB
}
