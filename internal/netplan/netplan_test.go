package netplan

import (
	"strings"
	"sync"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// reportMax is the per-module peak graph.Network.Report() implies: every
// module planned in isolation with its own fresh pool.
func reportMax(t *testing.T, net graph.Network) int {
	t.Helper()
	max := 0
	for _, r := range net.Report() {
		if r.VMCU > max {
			max = r.VMCU
		}
	}
	return max
}

func planOK(t *testing.T, net graph.Network, opts Options) *NetworkPlan {
	t.Helper()
	np, err := Plan(net, opts)
	if err != nil {
		t.Fatalf("Plan(%s): %v", net.Name, err)
	}
	return np
}

// TestPlanNetworkGolden pins the acceptance criterion on both backbones:
// the one-pool scheduled network peak must not exceed the per-module max
// the per-module Report() implies.
func TestPlanNetworkGolden(t *testing.T) {
	for _, net := range []graph.Network{graph.VWW(), graph.ImageNet()} {
		np := planOK(t, net, Options{})
		perModule := reportMax(t, net)
		if np.PerModuleMaxBytes != perModule {
			t.Errorf("%s: PerModuleMaxBytes = %d, Report() max = %d",
				net.Name, np.PerModuleMaxBytes, perModule)
		}
		if np.PeakBytes > perModule {
			t.Errorf("%s: scheduled peak %d exceeds per-module max %d",
				net.Name, np.PeakBytes, perModule)
		}
		if np.PeakBytes <= 0 {
			t.Errorf("%s: non-positive peak %d", net.Name, np.PeakBytes)
		}
		if len(np.Modules) != len(net.Modules) {
			t.Errorf("%s: %d module schedules for %d modules",
				net.Name, len(np.Modules), len(net.Modules))
		}
	}
}

// TestPlanNetworkShape checks the structural invariants of the VWW plan:
// S1–S2 and S7–S8 connect (no handoff), the other five boundaries hand off,
// and the step/tensor lists are consistent.
func TestPlanNetworkShape(t *testing.T) {
	np := planOK(t, graph.VWW(), Options{})
	if np.Handoffs != 5 {
		t.Errorf("VWW handoffs = %d, want 5", np.Handoffs)
	}
	// 1 input + 8 outputs + 5 handoff inputs (all modules schedule fused).
	if len(np.Tensors) != 14 {
		t.Errorf("VWW tensors = %d, want 14", len(np.Tensors))
	}
	if len(np.Steps) != 13 {
		t.Errorf("VWW steps = %d, want 13", len(np.Steps))
	}
	if np.Tensors[0].Name != "input" {
		t.Errorf("first tensor %q, want input", np.Tensors[0].Name)
	}
	for _, ms := range np.Modules {
		if ms.Policy != PolicyFused {
			t.Errorf("module %s scheduled %v, expected fused to win the search", ms.Name, ms.Policy)
		}
		if ms.WindowBytes > ms.FusedBytes {
			t.Errorf("module %s window %d exceeds its fused footprint %d",
				ms.Name, ms.WindowBytes, ms.FusedBytes)
		}
	}
}

// TestPlanOffsetsSatisfyConstraints re-checks every recorded difference
// constraint against the solved offsets, and verifies the final output
// anchors at 0 with all offsets nonnegative.
func TestPlanOffsetsSatisfyConstraints(t *testing.T) {
	for _, net := range []graph.Network{graph.VWW(), graph.ImageNet()} {
		np := planOK(t, net, Options{})
		for _, c := range np.Constraints {
			hi, lo := np.Tensors[c.Hi], np.Tensors[c.Lo]
			if hi.Offset-lo.Offset < c.Gap {
				t.Errorf("%s: off(%s)-off(%s) = %d below gap %d",
					net.Name, hi.Name, lo.Name, hi.Offset-lo.Offset, c.Gap)
			}
		}
		last := np.Tensors[len(np.Tensors)-1]
		if last.Offset != 0 {
			t.Errorf("%s: final tensor %s offset %d, want anchor 0", net.Name, last.Name, last.Offset)
		}
		for _, tn := range np.Tensors {
			if tn.Offset < 0 {
				t.Errorf("%s: tensor %s at negative offset %d", net.Name, tn.Name, tn.Offset)
			}
		}
	}
}

// TestPlanLiveRanges verifies every activation has a contiguous live range
// covering at least one step, the network input is born at step 0, and
// each step's window is at least its largest live tensor plus workspace.
func TestPlanLiveRanges(t *testing.T) {
	np := planOK(t, graph.ImageNet(), Options{})
	if np.Tensors[0].Birth != 0 {
		t.Errorf("input born at step %d, want 0", np.Tensors[0].Birth)
	}
	liveAt := make(map[int]map[int]bool) // tensor -> steps
	for si, st := range np.Steps {
		for _, ti := range st.Live {
			if liveAt[ti] == nil {
				liveAt[ti] = map[int]bool{}
			}
			liveAt[ti][si] = true
		}
	}
	for ti, tn := range np.Tensors {
		if tn.Birth < 0 || tn.Death < tn.Birth {
			t.Errorf("tensor %s has empty live range [%d,%d]", tn.Name, tn.Birth, tn.Death)
			continue
		}
		for s := tn.Birth; s <= tn.Death; s++ {
			if !liveAt[ti][s] {
				t.Errorf("tensor %s live range [%d,%d] not contiguous at step %d",
					tn.Name, tn.Birth, tn.Death, s)
			}
		}
	}
	for _, st := range np.Steps {
		need := st.WorkspaceBytes
		for _, ti := range st.Live {
			if b := np.Tensors[ti].Bytes + st.WorkspaceBytes; b > need {
				need = b
			}
		}
		if st.WindowBytes < need {
			t.Errorf("step %s window %d below largest live tensor + workspace %d",
				st.Name, st.WindowBytes, need)
		}
	}
}

// TestPlanBudget covers the infeasible-pool error path and the boundary
// where the budget exactly equals the peak.
func TestPlanBudget(t *testing.T) {
	net := graph.VWW()
	np := planOK(t, net, Options{})
	if _, err := Plan(net, Options{BudgetBytes: np.PeakBytes}); err != nil {
		t.Errorf("budget == peak must be feasible: %v", err)
	}
	_, err := Plan(net, Options{BudgetBytes: np.PeakBytes - 1})
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("budget below peak: got %v, want infeasible-pool error", err)
	}
}

// TestPlanEmptyNetwork covers the empty-network error path.
func TestPlanEmptyNetwork(t *testing.T) {
	if _, err := Plan(graph.Network{Name: "empty"}, Options{}); err == nil {
		t.Error("empty network accepted")
	}
}

// TestForcePolicy pins modules to non-default policies and checks both the
// schedule and the error for unsupported forcings.
func TestForcePolicy(t *testing.T) {
	net := graph.VWW()
	// S3 is the only VWW module eligible for unfused execution
	// (non-residual, stride-1 pointwise convs).
	np := planOK(t, net, Options{Force: map[string]Policy{"S3": PolicyUnfused, "S8": PolicyBaseline}})
	byName := map[string]ModuleSchedule{}
	for _, ms := range np.Modules {
		byName[ms.Name] = ms
	}
	if byName["S3"].Policy != PolicyUnfused || len(byName["S3"].Plans) != 3 {
		t.Errorf("S3 forced unfused, got %v with %d plans", byName["S3"].Policy, len(byName["S3"].Plans))
	}
	if byName["S8"].Policy != PolicyBaseline {
		t.Errorf("S8 forced baseline, got %v", byName["S8"].Policy)
	}
	def := planOK(t, net, Options{})
	if np.PeakBytes < def.PeakBytes {
		t.Errorf("forced plan peak %d below searched peak %d — search missed a better schedule",
			np.PeakBytes, def.PeakBytes)
	}
	// S1 is residual: unfused execution pins A disjoint above the chain
	// plus the elementwise add, so the forced schedule carries the extra
	// add step and can only peak higher than the searched plan.
	res := planOK(t, net, Options{Force: map[string]Policy{"S1": PolicyUnfused}})
	if res.Modules[0].Policy != PolicyUnfused {
		t.Errorf("S1 forced unfused, got %v", res.Modules[0].Policy)
	}
	if res.PeakBytes < def.PeakBytes {
		t.Errorf("residual-unfused plan peak %d below searched %d", res.PeakBytes, def.PeakBytes)
	}
	foundAdd := false
	for _, st := range res.Steps {
		if st.Name == "S1.add" {
			foundAdd = true
			if len(st.Live) != 3 {
				t.Errorf("S1.add live set %v, want A, D and E", st.Live)
			}
		}
	}
	if !foundAdd {
		t.Error("residual unfused schedule lacks the S1.add step")
	}
	// Forcing a module that does not exist is an error, not a silent no-op.
	if _, err := Plan(net, Options{Force: map[string]Policy{"S9": PolicyFused}}); err == nil {
		t.Error("forcing a policy on unknown module S9 accepted")
	}
}

// unfusedPoolGran is the byte-wise pool granularity of
// graph.RunModuleUnfused, stated here independently of
// plan.ChainPlan.PoolBytes so the test below pins it.
const unfusedPoolGran = 4

// TestUnfusedWindowIsChainFootprint pins the plan/run feasibility
// agreement: a forced-unfused module's window must equal the chain
// footprint graph.RunModuleUnfused will actually allocate, and the network
// peak must cover it.
func TestUnfusedWindowIsChainFootprint(t *testing.T) {
	net := graph.VWW()
	np := planOK(t, net, Options{Force: map[string]Policy{"S3": PolicyUnfused}})
	stages, ok := plan.UnfusedStages(net.Modules[2])
	if !ok {
		t.Fatal("S3 must be unfused-eligible")
	}
	cp, err := plan.PlanChain(stages)
	if err != nil {
		t.Fatal(err)
	}
	// graph.RunModuleUnfused allocates the chain footprint rounded to its
	// byte-wise pool granularity.
	want := (cp.FootprintBytes + unfusedPoolGran - 1) / unfusedPoolGran * unfusedPoolGran
	if got := np.Modules[2].WindowBytes; got != want {
		t.Errorf("S3 unfused window %d != executable chain footprint %d", got, want)
	}
	if np.PeakBytes < want {
		t.Errorf("network peak %d below the unfused executor's requirement %d",
			np.PeakBytes, want)
	}
}

// TestBaselinePlanDisjoint checks the fallback placement really separates
// input and output, and never beats the fused plan.
func TestBaselinePlanDisjoint(t *testing.T) {
	for _, net := range []graph.Network{graph.VWW(), graph.ImageNet()} {
		for _, cfg := range net.Modules {
			base := BaselinePlan(cfg)
			if base.GapBytes() < base.OutBytes {
				t.Errorf("%s baseline gap %d below output %d: not disjoint",
					cfg.Name, base.GapBytes(), base.OutBytes)
			}
			fused := plan.PlanBottleneckModule(cfg)
			if base.FootprintBytes < fused.FootprintBytes {
				t.Errorf("%s baseline %d beats fused %d", cfg.Name, base.FootprintBytes, fused.FootprintBytes)
			}
		}
	}
}

// TestUnfusedStagesEligibility mirrors the executor's support matrix.
func TestUnfusedStagesEligibility(t *testing.T) {
	vww := graph.VWW()
	if _, ok := plan.UnfusedStages(graph.ImageNet().Modules[0]); ok {
		t.Error("strided-conv1 B1 reported unfused-eligible")
	}
	stages, ok := plan.UnfusedStages(vww.Modules[2])
	if !ok || len(stages) != 3 {
		t.Fatalf("S3 should be unfused-eligible, got ok=%v n=%d", ok, len(stages))
	}
	// The stages must connect (PlanChain accepts them).
	if _, err := plan.PlanChain(stages); err != nil {
		t.Errorf("S3 unfused stages do not chain: %v", err)
	}
	// Residual S1 chains too, with conv1 widened so B never overlaps the
	// pinned A (the skip add's source).
	rstages, ok := plan.UnfusedStages(vww.Modules[0])
	if !ok {
		t.Fatal("residual S1 should be unfused-eligible")
	}
	if got := rstages[0].GapBytes(); got < rstages[0].OutBytes {
		t.Errorf("residual conv1 gap %d below OutBytes %d — B would overlap the pinned A", got, rstages[0].OutBytes)
	}
	// gcd chaining: B5's conv2 pads under min(C,K); the chain segment rule
	// falls back to gcd so the stages still connect at raw tensor sizes.
	b5stages, ok := plan.UnfusedStages(graph.ImageNet().Modules[4])
	if !ok {
		t.Fatal("B5 should be unfused-eligible under the gcd segment rule")
	}
	if _, err := plan.PlanChain(b5stages); err != nil {
		t.Errorf("B5 unfused stages do not chain: %v", err)
	}
}

// TestCacheHitByteIdentical proves a cache hit returns the identical plan
// without re-solving: same pointer, and fingerprint byte-identical to an
// independent cold solve.
func TestCacheHitByteIdentical(t *testing.T) {
	c := NewCache()
	net := graph.ImageNet()
	opts := Options{BudgetBytes: 512 * 1024}
	p1, hit1, err := c.Plan(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Error("first request reported a hit")
	}
	p2, hit2, err := c.Plan(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("second request missed")
	}
	if p1 != p2 {
		t.Error("cache hit returned a different plan pointer")
	}
	cold, err := Plan(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Fingerprint() != p1.Fingerprint() {
		t.Error("cached plan not byte-identical to a cold solve")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	// Different options must key separately.
	if _, hit, err := c.Plan(net, Options{BudgetBytes: 128 * 1024}); err != nil || hit {
		t.Errorf("different budget reused entry (hit=%v, err=%v)", hit, err)
	}
	c.Reset()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Len != 0 {
		t.Errorf("reset left stats %d/%d len=%d", st.Hits, st.Misses, st.Len)
	}
}

// TestCacheConcurrent hammers one cache key from many goroutines: exactly
// one solve must happen and every caller must get the identical plan.
// Run with -race to prove the cache is concurrency-safe.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	net := graph.VWW()
	const n = 16
	plans := make([]*NetworkPlan, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			np, _, err := c.Plan(net, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = np
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan instance", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1", st.Hits, st.Misses, n-1)
	}
}
