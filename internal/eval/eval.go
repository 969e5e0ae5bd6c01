// Package eval regenerates every table and figure of the paper's
// evaluation (§7) on the simulated substrate: the nine single-layer
// pointwise-convolution cases (Figures 7 and 8), the inverted-bottleneck
// module comparisons for MCUNet-5fps-VWW and MCUNet-320KB-ImageNet
// (Figures 9 and 10, Table 3), and the iso-memory scaling studies
// (Figures 11 and 12). RAM numbers are exact; latency and energy come
// from the shared cycle/energy model. KB follows the paper's 10^3
// convention.
package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/vmcu-project/vmcu/internal/baseline"
	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// KB converts bytes to the paper's 10^3-byte kilobytes.
func KB(bytes int) float64 { return float64(bytes) / 1000 }

// F411RELimit is the RAM budget of the smaller evaluation board in the
// paper's KB convention.
const F411RELimit = 128 * 1000

// PointwiseCase is one bar of Figures 7 and 8.
type PointwiseCase struct {
	Name     string
	HW, C, K int
}

// Figure7Cases returns the paper's nine single-layer configurations.
func Figure7Cases() []PointwiseCase {
	return []PointwiseCase{
		{"H/W80,C16,K16", 80, 16, 16},
		{"H/W56,C32,K32", 56, 32, 32},
		{"H/W28,C64,K64", 28, 64, 64},
		{"H/W80,C16,K8", 80, 16, 8},
		{"H/W40,C32,K16", 40, 32, 16},
		{"H/W20,C48,K24", 20, 48, 24},
		{"H/W24,C16,K32", 24, 16, 32},
		{"H/W12,C32,K64", 12, 32, 64},
		{"H/W6,C64,K128", 6, 64, 128},
	}
}

// Fig7Row is one row of the Figure 7 RAM comparison.
type Fig7Row struct {
	Case           PointwiseCase
	TinyEngine     int // bytes
	VMCU           int // bytes
	ReductionPct   float64
	TinyEngineFits bool // within the 128 KB F411RE
	VMCUFits       bool
}

// Figure7 regenerates the single-layer RAM usage comparison on the
// STM32-F411RE budget.
func Figure7() []Fig7Row {
	rows := make([]Fig7Row, 0, 9)
	for _, c := range Figure7Cases() {
		te := baseline.TinyEnginePointwiseRAM(c.HW, c.HW, c.C, c.K)
		v := plan.Pointwise(c.HW, c.HW, c.C, c.K).FootprintBytes
		rows = append(rows, Fig7Row{
			Case:           c,
			TinyEngine:     te,
			VMCU:           v,
			ReductionPct:   100 * (1 - float64(v)/float64(te)),
			TinyEngineFits: te <= F411RELimit,
			VMCUFits:       v <= F411RELimit,
		})
	}
	return rows
}

// Fig8Row is one row of the Figure 8 energy/latency comparison.
type Fig8Row struct {
	Case           PointwiseCase
	TinyEnergyMJ   float64
	VMCUEnergyMJ   float64
	TinyLatencyMS  float64
	VMCULatencyMS  float64
	EnergyRedPct   float64
	LatencyRedPct  float64
	OutputVerified bool
	Violations     int
}

// RunVMCUPointwise executes the segment-aware pointwise kernel for one
// case on the given profile and returns its measured stats, whether the
// output matched the golden reference, and the violation count.
func RunVMCUPointwise(profile mcu.Profile, c PointwiseCase, seed int64) (mcu.Stats, bool, int, error) {
	st, ok, nViol, _, err := runVMCUPointwise(profile, c, seed, 0)
	return st, ok, nViol, err
}

// PointwiseMemoryTrace executes one case with occupancy tracing enabled
// and renders the live-byte timeline: the input draining while the output
// refills the freed segments.
func PointwiseMemoryTrace(profile mcu.Profile, c PointwiseCase, seed int64, width, height int) (string, error) {
	samples, err := PointwiseMemoryProfile(profile, c, seed, nil, "")
	if err != nil {
		return "", err
	}
	return RenderMemoryProfile(samples, width, height), nil
}

// PointwiseMemoryProfile executes one case with occupancy tracing enabled
// and returns the raw live-byte samples behind the Figure 1 timeline. When
// tr is an enabled tracer the samples are also recorded as a "pool_bytes"
// series under the given device name, so the occupancy curve exports as a
// counter track alongside the span timeline.
func PointwiseMemoryProfile(profile mcu.Profile, c PointwiseCase, seed int64, tr *obs.Tracer, device string) ([]int, error) {
	start := tr.Now()
	_, ok, nViol, samples, err := runVMCUPointwise(profile, c, seed, 32)
	if err != nil {
		return nil, err
	}
	if !ok || nViol != 0 {
		return nil, fmt.Errorf("eval: traced run failed verification (ok=%v violations=%d)", ok, nViol)
	}
	tr.RecordSeriesSpan("pool_bytes", device, "bytes", start, tr.Now(), samples)
	return samples, nil
}

func runVMCUPointwise(profile mcu.Profile, c PointwiseCase, seed int64, traceEvery int) (mcu.Stats, bool, int, []int, error) {
	p := plan.Pointwise(c.HW, c.HW, c.C, c.K)
	dev := mcu.New(profile, c.K*c.C+4*c.K+64)
	if traceEvery > 0 {
		dev.EnableTrace(traceEvery)
	}
	pool, err := seg.NewPool(dev, 0, p.PoolBytes())
	if err != nil {
		return mcu.Stats{}, false, 0, nil, err
	}
	ctx := intrin.NewCtx(dev, pool)
	rng := rand.New(rand.NewSource(seed))
	in := make([]int8, c.HW*c.HW*c.C)
	for i := range in {
		in[i] = int8(rng.Intn(255) - 127)
	}
	w := make([]int8, c.K*c.C)
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	bias := make([]int32, c.K)
	for i := range bias {
		bias[i] = int32(rng.Intn(1<<9) - 1<<8)
	}
	req := tensor.NewRequant(0.01, 0)
	pw := &kernels.Pointwise{H: c.HW, W: c.HW, C: c.C, K: c.K, Req: req}
	if pw.Weight, err = kernels.PackInt8(dev, w); err != nil {
		return mcu.Stats{}, false, 0, nil, err
	}
	if pw.Bias, err = kernels.PackInt32(dev, bias); err != nil {
		return mcu.Stats{}, false, 0, nil, err
	}
	inPl := kernels.PlaceInput(ctx, "in", in, p.GapBytes())
	out, err := pw.Run(ctx, p, inPl)
	if err != nil {
		return mcu.Stats{}, false, 0, nil, err
	}
	got := kernels.Extract(ctx, out)
	want := kernels.GoldenPointwise(in, c.HW, c.HW, c.C, c.K, 1, w, bias, req)
	ok := true
	for i := range want {
		if got[i] != want[i] {
			ok = false
			break
		}
	}
	_, nViol := dev.Violations()
	return dev.Stats, ok, nViol, dev.TraceSamples(), nil
}

// Figure8 regenerates the energy and latency comparison on the
// STM32-F767ZI (Cortex-M7) profile: vMCU is executed on the simulator,
// TinyEngine is evaluated through its cost model on the same profile.
func Figure8() ([]Fig8Row, error) {
	profile := mcu.CortexM7()
	rows := make([]Fig8Row, 0, 9)
	for i, c := range Figure7Cases() {
		vs, ok, nViol, err := RunVMCUPointwise(profile, c, int64(1000+i))
		if err != nil {
			return nil, fmt.Errorf("eval: case %s: %w", c.Name, err)
		}
		ts := baseline.TinyEnginePointwiseExec(c.HW, c.HW, c.C, c.K)
		row := Fig8Row{
			Case:           c,
			TinyEnergyMJ:   ts.EnergyJoules(profile) * 1e3,
			VMCUEnergyMJ:   vs.EnergyJoules(profile) * 1e3,
			TinyLatencyMS:  ts.LatencySeconds(profile) * 1e3,
			VMCULatencyMS:  vs.LatencySeconds(profile) * 1e3,
			OutputVerified: ok,
			Violations:     nViol,
		}
		row.EnergyRedPct = 100 * (1 - row.VMCUEnergyMJ/row.TinyEnergyMJ)
		row.LatencyRedPct = 100 * (1 - row.VMCULatencyMS/row.TinyLatencyMS)
		rows = append(rows, row)
	}
	return rows, nil
}

// ModuleRow is one bar of Figures 9 and 10.
type ModuleRow struct {
	Name       string
	TinyKB     float64
	HMCOSKB    float64
	VMCUKB     float64
	VMCURedPct float64 // vs TinyEngine
}

func moduleRows(n graph.Network) []ModuleRow {
	rows := make([]ModuleRow, 0, len(n.Modules))
	for _, r := range n.Report() {
		rows = append(rows, ModuleRow{
			Name:       r.Cfg.Name,
			TinyKB:     KB(r.TinyEngine),
			HMCOSKB:    KB(r.HMCOS),
			VMCUKB:     KB(r.VMCU),
			VMCURedPct: 100 * (1 - float64(r.VMCU)/float64(r.TinyEngine)),
		})
	}
	return rows
}

// BottleneckSummary describes the network-wide memory bottleneck.
type BottleneckSummary struct {
	TinyName  string
	TinyKB    float64
	HMCOSName string
	HMCOSKB   float64
	VMCUName  string
	VMCUKB    float64
	RedVsTiny float64 // percent
}

func bottleneckSummary(n graph.Network) BottleneckSummary {
	v, te, hm := n.Bottleneck()
	return BottleneckSummary{
		TinyName: te.Cfg.Name, TinyKB: KB(te.TinyEngine),
		HMCOSName: hm.Cfg.Name, HMCOSKB: KB(hm.HMCOS),
		VMCUName: v.Cfg.Name, VMCUKB: KB(v.VMCU),
		RedVsTiny: 100 * (1 - float64(v.VMCU)/float64(te.TinyEngine)),
	}
}

// Figure9 regenerates the MCUNet-5fps-VWW module RAM comparison.
func Figure9() ([]ModuleRow, BottleneckSummary) {
	n := graph.VWW()
	return moduleRows(n), bottleneckSummary(n)
}

// Figure10 regenerates the MCUNet-320KB-ImageNet module RAM comparison.
func Figure10() ([]ModuleRow, BottleneckSummary) {
	n := graph.ImageNet()
	return moduleRows(n), bottleneckSummary(n)
}

// Table3Row is one row of the module latency table.
type Table3Row struct {
	Name            string
	VMCULatencyMS   float64
	ThroughputIPS   float64 // images (module invocations) per second
	TinyLatencyMS   float64
	RatioVMCUToTiny float64
	OutputVerified  bool
}

// Table3 regenerates the VWW module latency table on the Cortex-M4
// profile: vMCU's fused kernel is executed on the simulator; TinyEngine
// is evaluated through its cost model.
func Table3() ([]Table3Row, error) {
	profile := mcu.CortexM4()
	rows := make([]Table3Row, 0, 8)
	for i, m := range graph.VWW().Modules {
		r, err := graph.RunModule(profile, m, int64(2000+i))
		if err != nil {
			return nil, err
		}
		v := r.Stats.LatencySeconds(profile) * 1e3
		te := baseline.TinyEngineBottleneckExec(m).LatencySeconds(profile) * 1e3
		rows = append(rows, Table3Row{
			Name:            m.Name,
			VMCULatencyMS:   v,
			ThroughputIPS:   1000 / v,
			TinyLatencyMS:   te,
			RatioVMCUToTiny: v / te,
			OutputVerified:  r.OutputOK && r.Violations == 0,
		})
	}
	return rows, nil
}

// ScaleRow is one bar of Figures 11 and 12.
type ScaleRow struct {
	Name  string
	Ratio float64
}

// Figure11 computes, per VWW module, how much the image size (height and
// width together) can grow under vMCU while staying within TinyEngine's
// RAM budget for the original module.
func Figure11() []ScaleRow {
	rows := make([]ScaleRow, 0, 8)
	for _, m := range graph.VWW().Modules {
		budget := baseline.TinyEngineBottleneckRAM(m)
		best := m.H
		for hw := m.H; hw <= 16*m.H; hw++ {
			scaled := m
			scaled.H, scaled.W = hw, hw
			if plan.PlanBottleneckModule(scaled).FootprintBytes <= budget {
				best = hw
			} else {
				break
			}
		}
		rows = append(rows, ScaleRow{Name: m.Name, Ratio: float64(best) / float64(m.H)})
	}
	return rows
}

// Figure12 computes the channel growth (input and output channels
// together) under the same iso-memory budget.
func Figure12() []ScaleRow {
	rows := make([]ScaleRow, 0, 8)
	for _, m := range graph.VWW().Modules {
		budget := baseline.TinyEngineBottleneckRAM(m)
		best := 1.0
		for f := 1; f <= 64; f++ {
			scaled := m
			scaled.Cin = m.Cin * f
			scaled.Cout = m.Cout * f
			if plan.PlanBottleneckModule(scaled).FootprintBytes <= budget {
				best = float64(f)
			} else {
				// Refine between f-1 and f in 1/8 steps of the base channel.
				for num := 1; num < 8; num++ {
					scaled.Cin = m.Cin*(f-1) + m.Cin*num/8
					scaled.Cout = m.Cout*(f-1) + m.Cout*num/8
					if scaled.Cin > 0 && scaled.Cout > 0 &&
						plan.PlanBottleneckModule(scaled).FootprintBytes <= budget {
						best = float64(f-1) + float64(num)/8
					}
				}
				break
			}
		}
		rows = append(rows, ScaleRow{Name: m.Name, Ratio: best})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

// Table renders rows of cells as an aligned text table.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// RenderFigure7 formats the Figure 7 reproduction.
func RenderFigure7(rows []Fig7Row) string {
	out := [][]string{}
	for _, r := range rows {
		fits := func(b bool) string {
			if b {
				return "yes"
			}
			return "OOM"
		}
		out = append(out, []string{
			r.Case.Name,
			fmt.Sprintf("%.1f", KB(r.TinyEngine)),
			fmt.Sprintf("%.1f", KB(r.VMCU)),
			fmt.Sprintf("%+.2f%%", -r.ReductionPct),
			fits(r.TinyEngineFits),
			fits(r.VMCUFits),
		})
	}
	return "Figure 7: single-layer RAM usage on STM32-F411RE (128KB)\n" +
		Table([]string{"case", "TinyEngine KB", "vMCU KB", "reduction", "TE fits", "vMCU fits"}, out)
}

// RenderFigure8 formats the Figure 8 reproduction.
func RenderFigure8(rows []Fig8Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Case.Name,
			fmt.Sprintf("%.2f", r.TinyEnergyMJ),
			fmt.Sprintf("%.2f", r.VMCUEnergyMJ),
			fmt.Sprintf("%+.1f%%", -r.EnergyRedPct),
			fmt.Sprintf("%.2f", r.TinyLatencyMS),
			fmt.Sprintf("%.2f", r.VMCULatencyMS),
			fmt.Sprintf("%+.1f%%", -r.LatencyRedPct),
			fmt.Sprintf("%v", r.OutputVerified && r.Violations == 0),
		})
	}
	return "Figure 8: single-layer energy and latency on STM32-F767ZI\n" +
		Table([]string{"case", "TE mJ", "vMCU mJ", "dE", "TE ms", "vMCU ms", "dt", "verified"}, out)
}

// RenderModules formats a Figure 9/10 reproduction.
func RenderModules(title string, rows []ModuleRow, s BottleneckSummary) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%.1f", r.TinyKB),
			fmt.Sprintf("%.1f", r.HMCOSKB),
			fmt.Sprintf("%.1f", r.VMCUKB),
			fmt.Sprintf("%+.1f%%", -r.VMCURedPct),
		})
	}
	return title + "\n" +
		Table([]string{"module", "TinyEngine KB", "HMCOS KB", "vMCU KB", "vs TE"}, out) +
		fmt.Sprintf("bottleneck: TinyEngine %.1fKB (%s), HMCOS %.1fKB (%s), vMCU %.1fKB (%s); vMCU reduces the bottleneck by %.1f%%\n",
			s.TinyKB, s.TinyName, s.HMCOSKB, s.HMCOSName, s.VMCUKB, s.VMCUName, s.RedVsTiny)
}

// RenderTable3 formats the module latency table.
func RenderTable3(rows []Table3Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%.0f", r.VMCULatencyMS),
			fmt.Sprintf("%.0f", r.ThroughputIPS),
			fmt.Sprintf("%.0f", r.TinyLatencyMS),
			fmt.Sprintf("%.2fx", r.RatioVMCUToTiny),
			fmt.Sprintf("%v", r.OutputVerified),
		})
	}
	return "Table 3: inverted-bottleneck latency, MCUNet-5fps-VWW on STM32-F411RE\n" +
		Table([]string{"module", "vMCU ms", "img/s", "TinyEngine ms", "ratio", "verified"}, out)
}

// RenderScaling formats a Figure 11/12 reproduction.
func RenderScaling(title string, rows []ScaleRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{r.Name, fmt.Sprintf("%.2fx", r.Ratio)})
	}
	return title + "\n" + Table([]string{"module", "increase"}, out)
}

// RenderTable1 prints the paper's background hardware comparison.
func RenderTable1() string {
	return "Table 1: memory/storage of the hardware classes discussed in the paper\n" +
		Table([]string{"hardware", "memory", "storage", "sw support"}, [][]string{
			{"A100", "40GB", "TB-PB", "CUDA runtime"},
			{"Kirin-990", "8GB", "256GB", "OS (Linux)"},
			{"F411RE", "128KB", "512KB", "None"},
		})
}

// RenderTable2 prints the module configurations used in §7.3.
func RenderTable2() string {
	out := [][]string{}
	for _, n := range []graph.Network{graph.VWW(), graph.ImageNet()} {
		for _, m := range n.Modules {
			out = append(out, []string{
				m.Name, fmt.Sprintf("%d", m.H), fmt.Sprintf("%d", m.Cin),
				fmt.Sprintf("%d", m.Cmid), fmt.Sprintf("%d", m.Cout),
				fmt.Sprintf("%d", m.R), fmt.Sprintf("%d,%d,%d", m.S1, m.S2, m.S3),
			})
		}
	}
	return "Table 2: inverted-bottleneck configurations\n" +
		Table([]string{"name", "H/W", "Cin", "Cmid", "Cout", "R/S", "strides"}, out)
}
