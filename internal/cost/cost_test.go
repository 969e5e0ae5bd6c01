package cost

import (
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// within asserts the predicted cycles and energy land inside the stated
// ±10% validation tolerance of the measured counters (the equality checks
// below are much stronger; this pins the contract itself).
func within(t *testing.T, name string, prof mcu.Profile, got, want mcu.Stats) {
	t.Helper()
	for _, q := range []struct {
		metric string
		g, w   float64
	}{
		{"cycles", got.Cycles(prof), want.Cycles(prof)},
		{"energy", got.EnergyJoules(prof), want.EnergyJoules(prof)},
	} {
		if q.w == 0 {
			t.Fatalf("%s: measured %s is zero", name, q.metric)
		}
		if rel := q.g/q.w - 1; rel > 0.10 || rel < -0.10 {
			t.Errorf("%s: estimated %s %.4g vs measured %.4g (%.1f%% off, tolerance ±10%%)",
				name, q.metric, q.g, q.w, 100*rel)
		}
	}
}

// fusedCases is every VWW and ImageNet module, so each corner geometry
// the networks hold proves exact counter equality on its own: residual
// modules, strided conv1 (B1), strided depthwise, R = 5 and R = 7 windows,
// and plain stride-1 modules. Whole-network sums alone could hide
// compensating errors.
func fusedCases() []plan.Bottleneck {
	return append(graph.VWW().Modules, graph.ImageNet().Modules...)
}

func TestFusedModuleMatchesExecutedCounters(t *testing.T) {
	prof := mcu.CortexM4()
	for _, cfg := range fusedCases() {
		res, err := graph.RunModuleWithPlan(prof, cfg, plan.PlanBottleneckModule(cfg), 7)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !res.OutputOK {
			t.Fatalf("%s: execution did not verify", cfg.Name)
		}
		got := FusedModule(cfg)
		if got != res.Stats {
			t.Errorf("%s: estimate\n%+v\nmeasured\n%+v", cfg.Name, got, res.Stats)
		}
		within(t, cfg.Name, prof, got, res.Stats)
	}
}

func TestBaselinePlacementDoesNotChangeCounts(t *testing.T) {
	// PolicyBaseline runs the same fused kernel under a disjoint placement;
	// the counts are placement-independent, so one estimate covers both.
	prof := mcu.CortexM7()
	cfg := graph.VWW().Modules[2]
	fused := plan.PlanBottleneckModule(cfg)
	wide := plan.WithGapSegs(fused, (fused.OutBytes+fused.SegBytes-1)/fused.SegBytes)
	res, err := graph.RunModuleWithPlan(prof, cfg, wide, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := FusedModule(cfg); got != res.Stats {
		t.Errorf("baseline: estimate\n%+v\nmeasured\n%+v", got, res.Stats)
	}
}

func TestUnfusedModuleMatchesExecutedCounters(t *testing.T) {
	prof := mcu.CortexM4()
	small := plan.Bottleneck{Name: "t-unfused", H: 8, W: 8, Cin: 8, Cmid: 32, Cout: 16,
		R: 3, S: 3, S1: 1, S2: 1, S3: 1}
	// Seam-rule segments (gcd chaining) and a residual chain (pinned A,
	// disjoint conv1, elementwise add tail) are both covered: B5's conv2
	// pads under min(C,K), S1 is residual.
	for _, cfg := range []plan.Bottleneck{
		graph.VWW().Modules[2], small, graph.ImageNet().Modules[4], graph.VWW().Modules[0],
	} {
		if !UnfusedEligible(cfg) {
			t.Fatalf("%s unexpectedly ineligible", cfg.Name)
		}
		res, err := graph.RunModuleUnfused(prof, cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !res.OutputOK {
			t.Fatalf("%s: execution did not verify", cfg.Name)
		}
		got, err := UnfusedModule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != res.Stats {
			t.Errorf("%s unfused: estimate\n%+v\nmeasured\n%+v", cfg.Name, got, res.Stats)
		}
		within(t, cfg.Name+"-unfused", prof, got, res.Stats)
	}
	ineligible := plan.Bottleneck{Name: "t-strided", H: 8, W: 8, Cin: 4, Cmid: 8, Cout: 4,
		R: 3, S: 3, S1: 2, S2: 1, S3: 1}
	if _, err := UnfusedModule(ineligible); err == nil {
		t.Error("strided-pointwise module must be rejected")
	}
}

func TestSeamMatchesExecutedCounters(t *testing.T) {
	prof := mcu.CortexM4()
	imnet := graph.ImageNet()
	spec, ok := plan.SeamOf(imnet.Modules[4], imnet.Modules[5]) // B5>B6
	if !ok {
		t.Fatal("B5>B6 must be streamable")
	}
	stride2 := plan.SeamSpec{Name: "t-s2", H: 10, W: 10, Cin: 12, Cout: 8, Stride: 2}
	for _, sp := range []plan.SeamSpec{spec, stride2} {
		p := plan.PlanSeam(sp)
		res, err := graph.RunSeam(prof, sp, p, 5)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if !res.OutputOK {
			t.Fatalf("%s: seam did not verify", sp.Name)
		}
		got := Seam(sp)
		if got != res.Stats {
			t.Errorf("%s: estimate\n%+v\nmeasured\n%+v", sp.Name, got, res.Stats)
		}
		within(t, "seam "+sp.Name, prof, got, res.Stats)
	}
}

func TestSplitRegionMatchesExecutedCounters(t *testing.T) {
	prof := mcu.CortexM7()
	mods := graph.ImageNet().Modules[:2]
	for _, patches := range []int{2, 8} {
		sp, err := plan.PlanSplit(plan.SplitSpec{Modules: mods, Patches: patches})
		if err != nil {
			t.Fatal(err)
		}
		res, err := graph.RunSplitRegion(prof, sp, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OutputOK {
			t.Fatalf("split ×%d did not verify", patches)
		}
		got := SplitRegion(sp)
		if got != res.Stats {
			t.Errorf("split ×%d: estimate\n%+v\nmeasured\n%+v", patches, got, res.Stats)
		}
		within(t, res.Name, prof, got, res.Stats)
	}
}

func TestSplitFloorAndMonotonicity(t *testing.T) {
	// More patches recompute more halo rows and can only cost more; no
	// split undercuts the zero-recompute floor.
	prof := mcu.CortexM7()
	mods := graph.ImageNet().Modules[:2]
	prevCycles, prevRecompute := 0.0, -1
	for patches := 2; patches <= 16; patches *= 2 {
		sp, err := plan.PlanSplit(plan.SplitSpec{Modules: mods, Patches: patches})
		if err != nil {
			t.Fatal(err)
		}
		cyc := SplitRegion(sp).Cycles(prof)
		floor := SplitRegionFloor(sp).Cycles(prof)
		if cyc < floor {
			t.Errorf("×%d: estimate %.0f below zero-recompute floor %.0f", patches, cyc, floor)
		}
		if sp.RecomputedRows < prevRecompute {
			t.Errorf("×%d: recomputed rows %d fell below ×%d's %d", patches, sp.RecomputedRows, patches/2, prevRecompute)
		}
		if cyc < prevCycles {
			t.Errorf("×%d: cycles %.0f fell below the smaller patch count's %.0f", patches, cyc, prevCycles)
		}
		prevCycles, prevRecompute = cyc, sp.RecomputedRows
	}
}

func TestAssembleSeparatesExecutedAndGlue(t *testing.T) {
	prof := mcu.CortexM4()
	run := mcu.Stats{MACs: 100, RAMReadBytes: 40}
	glue := mcu.Stats{RAMReadBytes: 10, RAMWriteBytes: 10, Calls: 1}
	e := Assemble(prof, []Unit{
		{Name: "m", Kind: "fused", Executed: true, Stats: run},
		{Name: "g", Kind: "glue", Executed: false, Stats: glue},
	})
	if e.Executed != run || e.Glue != glue {
		t.Fatalf("sums wrong: executed %+v glue %+v", e.Executed, e.Glue)
	}
	want := run
	want.Add(glue)
	if e.Total != want {
		t.Fatalf("total %+v, want %+v", e.Total, want)
	}
	if e.Cycles <= e.ExecutedCycles || e.Cycles != e.Total.Cycles(prof) {
		t.Fatalf("pricing wrong: total %.1f executed %.1f", e.Cycles, e.ExecutedCycles)
	}
}

func TestDisjointGlueFallsBackToCopy(t *testing.T) {
	st := DisjointGlue(nil, 100, 60)
	if st.RAMReadBytes != 100 || st.RAMWriteBytes != 60 || st.Calls != 1 {
		t.Fatalf("copy model wrong: %+v", st)
	}
	spec := plan.SeamSpec{Name: "g", H: 4, W: 4, Cin: 4, Cout: 2, Stride: 1}
	if DisjointGlue(&spec, 0, 0) != Seam(spec) {
		t.Fatal("streamable glue must price like the seam kernel")
	}
}
