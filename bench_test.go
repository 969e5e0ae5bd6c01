package vmcu

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// regenerates its experiment's data on the simulated substrate and
// reports the paper's headline quantity as a custom metric, so regressions
// in either the planner or the kernels are visible in benchmark output.
// Micro-benchmarks at the bottom cover the core data structures.

import (
	"testing"

	"github.com/vmcu-project/vmcu/internal/affine"
	"github.com/vmcu-project/vmcu/internal/eval"
	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/ilp"
	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
)

// BenchmarkFig7RAMUsage regenerates Figure 7: single-layer RAM usage for
// the nine pointwise cases. Metric: bottleneck-case RAM reduction (%).
func BenchmarkFig7RAMUsage(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		rows := eval.Figure7()
		red = rows[0].ReductionPct
	}
	b.ReportMetric(red, "%reduction-case1")
}

// BenchmarkFig8EnergyLatency regenerates Figure 8: executed single-layer
// energy and latency on the Cortex-M7 profile. Metric: case-1 energy
// reduction (%).
func BenchmarkFig8EnergyLatency(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		red = rows[0].EnergyRedPct
	}
	b.ReportMetric(red, "%energy-reduction-case1")
}

// BenchmarkFig9VWWModules regenerates Figure 9: per-module RAM for
// MCUNet-5fps-VWW. Metric: bottleneck reduction vs TinyEngine (%).
func BenchmarkFig9VWWModules(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		_, s := eval.Figure9()
		red = s.RedVsTiny
	}
	b.ReportMetric(red, "%bottleneck-reduction")
}

// BenchmarkFig10ImageNetModules regenerates Figure 10: per-module RAM for
// MCUNet-320KB-ImageNet. Metric: vMCU bottleneck KB (must stay under 128).
func BenchmarkFig10ImageNetModules(b *testing.B) {
	var kb float64
	for i := 0; i < b.N; i++ {
		_, s := eval.Figure10()
		kb = s.VMCUKB
	}
	b.ReportMetric(kb, "vMCU-bottleneck-KB")
}

// BenchmarkTable3Latency regenerates Table 3: executed fused-module
// latency for the VWW backbone on the Cortex-M4 profile. Metric: S1
// latency in modeled milliseconds (paper: 37 ms).
func BenchmarkTable3Latency(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table3()
		if err != nil {
			b.Fatal(err)
		}
		ms = rows[0].VMCULatencyMS
	}
	b.ReportMetric(ms, "S1-modeled-ms")
}

// BenchmarkFig11ImageScaling regenerates Figure 11: iso-memory image-size
// headroom. Metric: S1 ratio (paper band 1.29-2.58x).
func BenchmarkFig11ImageScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := eval.Figure11()
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "S1-image-ratio")
}

// BenchmarkFig12ChannelScaling regenerates Figure 12: iso-memory channel
// headroom. Metric: S1 ratio (paper band 1.26-3.17x).
func BenchmarkFig12ChannelScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := eval.Figure12()
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "S1-channel-ratio")
}

// --- Micro-benchmarks on the core machinery. ---

// BenchmarkPlannerGEMMOffset measures the §4 offset solve for a large FC.
func BenchmarkPlannerGEMMOffset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = plan.FC(6400, 64, 64)
	}
}

// BenchmarkPlannerModule measures the §5.2 fused-module pixel-scan solve.
func BenchmarkPlannerModule(b *testing.B) {
	cfg := ImageNet().Modules[0] // B1: the largest scan (88x88 output)
	for i := 0; i < b.N; i++ {
		_ = plan.PlanBottleneckModule(cfg)
	}
}

// BenchmarkAffineGapScan measures the exhaustive lexicographic oracle.
func BenchmarkAffineGapScan(b *testing.B) {
	box := affine.NewBox(64, 8, 8)
	read := affine.LinForm{C: affine.Vec{8, 0, 1}}
	write := affine.LinForm{C: affine.Vec{8, 1, 0}}
	for i := 0; i < b.N; i++ {
		_ = affine.MaxWriteReadGapScan(write, read, box)
	}
}

// BenchmarkILPBranchBound measures the exact integer solver on a small
// Eq. (1) instance.
func BenchmarkILPBranchBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := ilp.NewProblem(2)
		p.SetObjective(1, -1)
		p.SetBounds(0, 0, 1024)
		p.SetBounds(1, 0, 1024)
		for d := int64(-8); d <= 8; d++ {
			p.AddConstraint([]int64{1, -1}, ilp.GE, d)
		}
		if _, err := p.SolveILP(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentPoolAccess measures the circular pool's tagged
// load/store path, including the modulo boundary check.
func BenchmarkSegmentPoolAccess(b *testing.B) {
	dev := mcu.New(mcu.CortexM4(), 0)
	pool, err := seg.NewPool(dev, 0, 4096, 16)
	if err != nil {
		b.Fatal(err)
	}
	ctx := intrin.NewCtx(dev, pool)
	id := dev.NewTensorID("bench")
	buf := make([]int8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 16) % 4096
		ctx.RAMStore(off, buf, id, 0)
		ctx.RAMLoad(buf, off, id, 0)
		ctx.RAMFree(off, 16, id)
	}
}

// BenchmarkDotIntrinsic measures DotVec on 64-element operands: the exact
// int32 dot product plus its closed-form MAC/ALU charge.
func BenchmarkDotIntrinsic(b *testing.B) {
	dev := mcu.New(mcu.CortexM4(), 0)
	pool, _ := seg.NewPool(dev, 0, 64, 16)
	ctx := intrin.NewCtx(dev, pool)
	x := make([]int8, 64)
	y := make([]int8, 64)
	var acc int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.DotVec(x, y, &acc)
	}
}

// BenchmarkRunVerifiedVWW executes the whole VWW backbone through
// netplan.Run on the Cortex-M4 profile, seed i on iteration i, every unit
// checked against its golden reference and the shadow state. Metric: host
// nanoseconds per simulated device cycle.
func BenchmarkRunVerifiedVWW(b *testing.B) { benchRunVerified(b, VWW()) }

// BenchmarkRunVerifiedImageNet is BenchmarkRunVerifiedVWW on the ImageNet
// backbone (split region and streamed seams included).
func BenchmarkRunVerifiedImageNet(b *testing.B) { benchRunVerified(b, ImageNet()) }

// benchRunVerified fails unless every run verifies bit-exactly with zero
// shadow-state violations. The plan is cached before timing starts.
func benchRunVerified(b *testing.B, net Network) {
	prof := mcu.CortexM4()
	cache := netplan.NewCache()
	if _, _, err := cache.Plan(net, netplan.Options{}); err != nil {
		b.Fatal(err)
	}
	var cycles float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := netplan.Run(prof, net, int64(i), netplan.Options{}, cache)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllVerified || res.Violations != 0 {
			b.Fatalf("seed %d: verified=%v violations=%d", i, res.AllVerified, res.Violations)
		}
		for _, units := range [][]graph.ExecResult{res.Modules, res.Seams} {
			for _, r := range units {
				cycles += r.Stats.Cycles(prof)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cycles, "host-ns/cycle")
}

// BenchmarkFusedBottleneckKernel executes the smallest VWW module
// (S8, 3x3x96) end to end per iteration.
func BenchmarkFusedBottleneckKernel(b *testing.B) {
	cfg := VWW().Modules[7]
	for i := 0; i < b.N; i++ {
		r, err := RunModule(CortexM4(), cfg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !r.OutputOK {
			b.Fatal("output mismatch")
		}
	}
}

// BenchmarkPlanNetwork measures a cold whole-network schedule solve for
// the ImageNet backbone (17 modules, policy search + offset solve per
// iteration). Metric: scheduled one-pool network peak in KB.
func BenchmarkPlanNetwork(b *testing.B) {
	net := ImageNet()
	var peak float64
	for i := 0; i < b.N; i++ {
		np, err := netplan.Plan(net, netplan.Options{BudgetBytes: 512 * 1024})
		if err != nil {
			b.Fatal(err)
		}
		peak = eval.KB(np.PeakBytes)
	}
	b.ReportMetric(peak, "net-peak-KB")
}

// BenchmarkPlanNetworkCached measures the memoized path: every iteration
// after the first hits the plan cache instead of re-running the solve.
func BenchmarkPlanNetworkCached(b *testing.B) {
	net := ImageNet()
	c := netplan.NewCache()
	opts := netplan.Options{BudgetBytes: 512 * 1024}
	if _, _, err := c.Plan(net, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := c.Plan(net, opts); err != nil || !hit {
			b.Fatalf("cache miss on warmed key (hit=%v err=%v)", hit, err)
		}
	}
}

// --- Ablation benchmarks (design choices the paper discusses in prose). ---

// BenchmarkAblationSegmentSize regenerates the §5.3 segment-size
// trade-off sweep. Metric: modulo cycle share at 1-byte segments —
// the paper's argument against element-granularity management.
func BenchmarkAblationSegmentSize(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		rows := eval.SegmentSizeSweep(20, 20, 48, 24, []int{1, 3, 6, 12, 24, 96})
		share = rows[0].ModuloCyclesShare
	}
	b.ReportMetric(100*share, "%modulo-share-seg1")
}

// BenchmarkAblationFusedVsUnfused executes S3 both fused (§5.2) and as a
// per-layer chain (Eq. 2 offsets). Metric: RAM ratio unfused/fused.
func BenchmarkAblationFusedVsUnfused(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		row, err := eval.FusionAblation(VWW().Modules[2], int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !row.BothVerified {
			b.Fatal("ablation runs not verified")
		}
		ratio = row.UnfusedKB / row.FusedKB
	}
	b.ReportMetric(ratio, "unfused/fused-RAM")
}

// BenchmarkSplitRegionImageNet executes the searched ImageNet patch-split
// region end to end (streamed input windows, halo recompute, re-join)
// with bit-exact verification per iteration. Metric: the region's
// executable RAM requirement in KB.
func BenchmarkSplitRegionImageNet(b *testing.B) {
	np, err := netplan.Plan(ImageNet(), netplan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if np.Split == nil {
		b.Fatal("no split region in the ImageNet schedule")
	}
	var kb float64
	for i := 0; i < b.N; i++ {
		r, err := graph.RunSplitRegion(mcu.CortexM7(), np.Split.Plan, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !r.OutputOK || r.Violations != 0 {
			b.Fatal("split region failed verification")
		}
		kb = eval.KB(np.Split.Plan.FootprintBytes)
	}
	b.ReportMetric(kb, "split-region-KB")
}
