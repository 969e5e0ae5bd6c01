package graph

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

func TestTable2Configs(t *testing.T) {
	vww := VWW()
	if len(vww.Modules) != 8 {
		t.Fatalf("VWW has %d modules, want 8", len(vww.Modules))
	}
	img := ImageNet()
	if len(img.Modules) != 17 {
		t.Fatalf("ImageNet has %d modules, want 17", len(img.Modules))
	}
	s3 := vww.Modules[2]
	if s3.H != 10 || s3.Cin != 24 || s3.Cmid != 144 || s3.Cout != 16 || s3.R != 3 {
		t.Errorf("S3 row wrong: %+v", s3)
	}
	b12 := img.Modules[11]
	if b12.H != 11 || b12.Cin != 40 || b12.Cmid != 200 || b12.Cout != 48 || b12.R != 7 || b12.S2 != 2 {
		t.Errorf("B12 row wrong: %+v", b12)
	}
	for _, m := range append(vww.Modules, img.Modules...) {
		if err := m.Validate(); err != nil {
			t.Errorf("module %s invalid: %v", m.Name, err)
		}
	}
}

func TestVWWBottleneckIsS1(t *testing.T) {
	// Paper: "The memory bottleneck of this network is the first module".
	v, te, hm := VWW().Bottleneck()
	if v.Cfg.Name != "S1" {
		t.Errorf("vMCU bottleneck = %s, want S1", v.Cfg.Name)
	}
	if te.Cfg.Name != "S1" || hm.Cfg.Name != "S1" {
		t.Errorf("baseline bottlenecks = %s/%s, want S1/S1", te.Cfg.Name, hm.Cfg.Name)
	}
	// Paper bottleneck reduction: 61.5% vs TinyEngine; we must land in a
	// comparable band (>= 45%).
	red := 1 - float64(v.VMCU)/float64(te.TinyEngine)
	if red < 0.45 || red > 0.75 {
		t.Errorf("VWW bottleneck reduction = %.3f, want ~0.6 (paper 0.615)", red)
	}
}

func TestImageNetOnlyVMCUFits128KB(t *testing.T) {
	// Paper: HMCOS (464.6 KB) and TinyEngine (247.8 KB) cannot deploy
	// MCUNet-320KB-ImageNet on the 128 KB F411RE; vMCU (102.7 KB) can.
	v, te, hm := ImageNet().Bottleneck()
	limit := 128 * 1000
	if v.VMCU > limit {
		t.Errorf("vMCU bottleneck %d exceeds 128 KB", v.VMCU)
	}
	if te.TinyEngine <= limit {
		t.Errorf("TinyEngine bottleneck %d unexpectedly fits 128 KB", te.TinyEngine)
	}
	if hm.HMCOS <= limit {
		t.Errorf("HMCOS bottleneck %d unexpectedly fits 128 KB", hm.HMCOS)
	}
	if te.Cfg.Name != "B2" {
		t.Errorf("TinyEngine bottleneck at %s, paper says B2", te.Cfg.Name)
	}
	if te.TinyEngine != 247808 {
		t.Errorf("TinyEngine bottleneck = %d, paper: 247808 (247.8KB)", te.TinyEngine)
	}
	if v.Cfg.Name != "B1" {
		t.Errorf("vMCU bottleneck at %s, paper says B1", v.Cfg.Name)
	}
}

func TestReportOrderingHolds(t *testing.T) {
	// vMCU must beat TinyEngine wherever the activations dominate the
	// R·S·Cmid workspace. For the tiniest modules (3x3 or 6x6 images whose
	// window covers most of the image) the fused workspace can exceed the
	// savings in our substrate — the paper's small residual advantage there
	// (-13%) reflects baseline runtime overheads we do not model; see
	// EXPERIMENTS.md. The loss must stay bounded.
	for _, n := range []Network{VWW(), ImageNet()} {
		for _, r := range n.Report() {
			aBytes := r.Cfg.H * r.Cfg.W * r.Cfg.Cin
			if aBytes >= 2*r.Cfg.WorkspaceBytes() && r.VMCU >= r.TinyEngine {
				t.Errorf("%s %s: vMCU %d not below TinyEngine %d", n.Name, r.Cfg.Name, r.VMCU, r.TinyEngine)
			}
			if r.VMCU > r.TinyEngine+2*r.Cfg.WorkspaceBytes() {
				t.Errorf("%s %s: vMCU %d exceeds TinyEngine %d beyond workspace slack", n.Name, r.Cfg.Name, r.VMCU, r.TinyEngine)
			}
			if r.TinyEngine > r.HMCOS {
				t.Errorf("%s %s: TinyEngine %d above HMCOS %d", n.Name, r.Cfg.Name, r.TinyEngine, r.HMCOS)
			}
		}
	}
}

func TestRunModuleSmall(t *testing.T) {
	// Execute the two smallest VWW modules end to end on the M4 profile.
	vww := VWW()
	for _, idx := range []int{6, 7} { // S7, S8: 3x3 spatial
		r, err := RunModule(mcu.CortexM4(), vww.Modules[idx], 77)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OutputOK {
			t.Errorf("%s: output mismatch vs golden", r.Name)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d memory violations", r.Name, r.Violations)
		}
		if r.PeakBytes > r.Plan.FootprintBytes {
			t.Errorf("%s: peak %d exceeds plan %d", r.Name, r.PeakBytes, r.Plan.FootprintBytes)
		}
		if r.Stats.MACs == 0 || r.Stats.LatencySeconds(mcu.CortexM4()) <= 0 {
			t.Errorf("%s: stats look empty: %+v", r.Name, r.Stats)
		}
	}
}

func TestRunModuleS1FitsF411RE(t *testing.T) {
	if testing.Short() {
		t.Skip("module execution is slow in -short mode")
	}
	r, err := RunModule(mcu.CortexM4(), VWW().Modules[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OutputOK || r.Violations != 0 {
		t.Fatalf("S1 failed: ok=%v violations=%d", r.OutputOK, r.Violations)
	}
	if r.PeakBytes > 128*1024 {
		t.Errorf("S1 peak %d exceeds the F411RE RAM", r.PeakBytes)
	}
}

func TestRunModuleRejectsOversized(t *testing.T) {
	// An artificial module bigger than the device RAM must be rejected.
	big := VWW().Modules[0]
	big.H, big.W = 400, 400
	if _, err := RunModule(mcu.CortexM4(), big, 1); err == nil {
		t.Error("oversized module accepted")
	}
}

func TestRunModuleUnfusedMatchesGoldenAndShowsFusionGain(t *testing.T) {
	// An S3-like non-residual module: the unfused chain must be correct
	// but materialize the expansion tensor, so the fused plan must beat it
	// by a wide margin (the point of §5.2).
	cfg := VWW().Modules[2] // S3: 10x10, 24 -> 144 -> 16, strides 1,1,1
	if cfg.Residual() {
		t.Fatal("premise: S3 is non-residual (24 != 16)")
	}
	un, err := RunModuleUnfused(mcu.CortexM4(), cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !un.OutputOK {
		t.Error("unfused output mismatch vs golden")
	}
	if un.Violations != 0 {
		t.Errorf("unfused chain: %d memory violations", un.Violations)
	}
	if un.PeakBytes > un.Plan.FootprintBytes {
		t.Errorf("unfused peak %d exceeds chain plan %d", un.PeakBytes, un.Plan.FootprintBytes)
	}
	fused := RunModuleOrDie(t, cfg)
	if fused.Plan.FootprintBytes*2 >= un.Plan.FootprintBytes {
		t.Errorf("fusion gain too small: fused %d vs unfused %d",
			fused.Plan.FootprintBytes, un.Plan.FootprintBytes)
	}
}

func RunModuleOrDie(t *testing.T, cfg plan.Bottleneck) ExecResult {
	t.Helper()
	r, err := RunModule(mcu.CortexM4(), cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunModuleUnfusedRejectsUnsupported(t *testing.T) {
	b1 := ImageNet().Modules[0] // conv1 stride 2
	if _, err := RunModuleUnfused(mcu.CortexM4(), b1, 1); err == nil {
		t.Error("strided pointwise accepted")
	}
}

func TestRunModuleUnfusedResidual(t *testing.T) {
	// A residual module runs per-layer too: conv1 keeps A pinned disjoint,
	// the chain ends in the elementwise add, and the result is bit-exact
	// against the golden composition including the skip connection.
	r, err := RunModuleUnfused(mcu.CortexM4(), VWW().Modules[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OutputOK {
		t.Error("residual unfused output mismatched the golden composition")
	}
	if r.Violations != 0 {
		t.Errorf("%d shadow-state violations (the pinned A was clobbered?)", r.Violations)
	}
}

func TestImageNetAllModulesExecute(t *testing.T) {
	// Execute every B1-B17 module with the fused kernel on the M7 profile
	// (the paper's Figure 10 platform), verifying all of them bit-exactly.
	if testing.Short() {
		t.Skip("full ImageNet execution is slow under -short")
	}
	results, err := ImageNet().Run(mcu.CortexM7(), 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 17 {
		t.Fatalf("executed %d modules, want 17", len(results))
	}
	for _, r := range results {
		if !r.OutputOK {
			t.Errorf("%s: output mismatch vs golden", r.Name)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d memory violations", r.Name, r.Violations)
		}
		if r.PeakBytes > r.Plan.FootprintBytes {
			t.Errorf("%s: peak %d exceeds plan %d", r.Name, r.PeakBytes, r.Plan.FootprintBytes)
		}
	}
}

func TestNoAccuracyLossFusedVsUnfused(t *testing.T) {
	// Paper §7.4: "The optimizations in vMCU do not change the original
	// correctness of the computation." Same seed -> same weights/input;
	// the fused kernel and the per-layer chain must produce byte-identical
	// outputs (both already golden-verified individually).
	cfg := VWW().Modules[2] // S3, non-residual
	const seed = 321
	fused, err := RunModule(mcu.CortexM4(), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := RunModuleUnfused(mcu.CortexM4(), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !fused.OutputOK || !unfused.OutputOK {
		t.Fatal("one of the paths failed golden verification")
	}
	// Both compared against the same golden composition with the same
	// deterministic weights, so transitively the outputs are identical
	// while the memory strategies differ by 4x.
	if fused.Plan.FootprintBytes >= unfused.Plan.FootprintBytes {
		t.Error("fused plan shows no memory advantage")
	}
}

// TestDrawInt8MatchesIntn pins drawInt8 to the stream rng.Intn(255)-127
// yields, the draw every seeded executor has always made.
func TestDrawInt8MatchesIntn(t *testing.T) {
	for _, seed := range []int64{0, 1, 12345} {
		ref := rand.New(rand.NewSource(seed))
		for i, v := range drawInt8(rand.New(rand.NewSource(seed)), 100000) {
			if want := int8(ref.Intn(255) - 127); v != want {
				t.Fatalf("seed %d: value %d is %d, want %d", seed, i, v, want)
			}
		}
	}
}
