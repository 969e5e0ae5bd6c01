package netplan

import (
	"strings"
	"testing"

	"github.com/vmcu-project/vmcu/internal/cost"
	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
)

// sumExecuted adds up the device counters of every unit a run executed.
func sumExecuted(res *RunResult) mcu.Stats {
	var st mcu.Stats
	for _, r := range res.Modules {
		st.Add(r.Stats)
	}
	for _, r := range res.Seams {
		st.Add(r.Stats)
	}
	return st
}

// checkUnitEstimates asserts that the estimate prices the plan's units one
// for one, in order, and, given a run, that each executed unit's predicted
// Stats equal the counters its run measured. Results are matched to units
// independently of the executor: RunResult.Modules holds the non-seam
// executed units in list order and RunResult.Seams the seams.
func checkUnitEstimates(t testing.TB, np *NetworkPlan, est *cost.Estimate, res *RunResult) {
	t.Helper()
	if len(est.Units) != len(np.Units) {
		t.Fatalf("%d estimate units for %d plan units", len(est.Units), len(np.Units))
	}
	var mods, seams []graph.ExecResult
	if res != nil {
		mods, seams = res.Modules, res.Seams
		if len(mods) != len(np.Units)-np.Handoffs || len(seams) != len(np.Seams) {
			t.Fatalf("%d module and %d seam results for %d units", len(mods), len(seams), len(np.Units))
		}
	}
	for i, u := range np.Units {
		e := est.Units[i]
		if e.Name != u.Name || e.Executed != (u.Kind != UnitGlue) {
			t.Fatalf("estimate unit %d is %q (executed %v), plan unit is %q (%v)", i, e.Name, e.Executed, u.Name, u.Kind)
		}
		if res == nil || u.Kind == UnitGlue {
			continue
		}
		var r graph.ExecResult
		if u.Kind == UnitSeam {
			r, seams = seams[0], seams[1:]
		} else {
			r, mods = mods[0], mods[1:]
		}
		if e.Stats != r.Stats {
			t.Errorf("unit %s: estimate %+v, executed %+v", u.Name, e.Stats, r.Stats)
		}
	}
}

// TestEstimateMatchesExecutedCounters is the validation contract of the
// cost model: across every scheduling policy and both handoff modes, the
// analytic estimate's executed portion must land within ±10% of the summed
// device cycle/energy counters of a real run, on both boards. The replay
// estimators are in fact bit-exact, which the count equality asserts — the
// tolerance is the stated contract future kernel changes must keep.
func TestEstimateMatchesExecutedCounters(t *testing.T) {
	cases := []struct {
		name string
		net  graph.Network
		opts Options
	}{
		// VWW schedules fused+unfused mixes with streamed seams.
		{"vww-stream", graph.VWW(), Options{}},
		{"vww-disjoint", graph.VWW(), Options{Handoff: HandoffDisjoint}},
		// Forced baseline and unfused policies on the eligible S3.
		{"vww-forced", graph.VWW(), Options{Force: map[string]Policy{
			"S3": PolicyUnfused, "S6": PolicyBaseline}}},
		// ImageNet adopts the patch-split region and keeps one
		// non-streamable boundary (B12>B13) as glue in both modes.
		{"imagenet-stream", graph.ImageNet(), Options{}},
		{"imagenet-disjoint", graph.ImageNet(), Options{Handoff: HandoffDisjoint}},
		{"imagenet-nosplit", graph.ImageNet(), Options{Split: SplitOptions{Disable: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewCache()
			res, err := Run(mcu.CortexM7(), tc.net, 21, tc.opts, cache)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllVerified || res.Violations != 0 {
				t.Fatalf("run failed verification (ok=%v violations=%d)", res.AllVerified, res.Violations)
			}
			measured := sumExecuted(res)
			for _, prof := range []mcu.Profile{mcu.CortexM4(), mcu.CortexM7()} {
				est, err := EstimatePlan(prof, tc.net, res.Plan)
				if err != nil {
					t.Fatal(err)
				}
				if est.Executed != measured {
					t.Errorf("%s: executed counts diverge\nestimate %+v\nmeasured %+v",
						prof.Name, est.Executed, measured)
				}
				checkUnitList(t, tc.net, res.Plan)
				checkUnitEstimates(t, res.Plan, est, res)
				for _, q := range []struct {
					metric string
					g, w   float64
				}{
					{"cycles", est.ExecutedCycles, measured.Cycles(prof)},
					{"energy", est.ExecutedEnergyJoules, measured.EnergyJoules(prof)},
				} {
					if rel := q.g/q.w - 1; rel > 0.10 || rel < -0.10 {
						t.Errorf("%s %s: estimate %.4g vs measured %.4g (%.1f%% off, tolerance ±10%%)",
							prof.Name, q.metric, q.g, q.w, 100*rel)
					}
				}
			}
		})
	}
}

func TestEstimateSeparatesGlueFromExecuted(t *testing.T) {
	// Under HandoffDisjoint every handoff is modeled glue; under
	// HandoffStream only the non-streamable boundary remains. Glue never
	// enters the executed (validated) portion, but the total — what a real
	// deployment would run — always includes the boundary work.
	net := graph.ImageNet()
	prof := mcu.CortexM4()
	stream, err := Plan(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	disjoint, err := Plan(net, Options{Handoff: HandoffDisjoint})
	if err != nil {
		t.Fatal(err)
	}
	estS, err := EstimatePlan(prof, net, stream)
	if err != nil {
		t.Fatal(err)
	}
	estD, err := EstimatePlan(prof, net, disjoint)
	if err != nil {
		t.Fatal(err)
	}
	if estS.Glue.Cycles(prof) == 0 {
		t.Error("streamed ImageNet plan must still model the non-streamable B12>B13 glue")
	}
	if estD.Glue.Cycles(prof) <= estS.Glue.Cycles(prof) {
		t.Errorf("disjoint glue %.0f must exceed streamed glue %.0f",
			estD.Glue.Cycles(prof), estS.Glue.Cycles(prof))
	}
	glueUnits := 0
	for _, u := range estD.Units {
		if u.Kind == "glue" {
			if u.Executed {
				t.Errorf("glue unit %s marked executed", u.Name)
			}
			glueUnits++
		}
	}
	if glueUnits != disjoint.Handoffs {
		t.Errorf("%d glue units for %d handoffs", glueUnits, disjoint.Handoffs)
	}
}

// TestParetoFrontierImageNet is the acceptance bar, with VWW alongside:
// each frontier has its pinned size, its memory-optimal plan is the
// scheduler's min-peak schedule (ImageNet: the 66.0 KB split schedule
// with 125 recomputed halo rows), and its latency-optimal plan buys its
// speed with a larger peak (ImageNet: and fewer recomputed rows). Both
// endpoints' M4 cycle estimates are pinned exactly.
func TestParetoFrontierImageNet(t *testing.T) {
	// An endpoint is a plan's peak bytes, recomputed rows and M4 cycles.
	type endpoint struct {
		peak, recompute int
		cycles          float64
	}
	for _, tc := range []struct {
		net  graph.Network
		size int
		want [2]endpoint // memory-optimal, latency-optimal
	}{
		{graph.ImageNet(), 17, [2]endpoint{{65968, 125, 373892082}, {196656, 2, 197672326}}},
		{graph.VWW(), 2, [2]endpoint{{13296, 0, 24971806}, {26608, 0, 15726662}}},
	} {
		t.Run(tc.net.Name, func(t *testing.T) {
			net := tc.net
			vs, err := Pareto(mcu.CortexM4(), net, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != tc.size {
				t.Fatalf("frontier has %d plans, want %d", len(vs), tc.size)
			}
			memOpt, latOpt := vs[0], vs[0]
			for _, v := range vs[1:] {
				if v.Plan.PeakBytes < memOpt.Plan.PeakBytes {
					memOpt = v
				}
				if v.Est.Cycles < latOpt.Est.Cycles {
					latOpt = v
				}
			}
			minPeak, err := Plan(net, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if memOpt.Plan.PeakBytes != minPeak.PeakBytes {
				t.Errorf("frontier memory-optimal peak %d, scheduler's min-peak %d",
					memOpt.Plan.PeakBytes, minPeak.PeakBytes)
			}
			got := [2]endpoint{
				{memOpt.Plan.PeakBytes, memOpt.RecomputedRows, memOpt.Est.Cycles},
				{latOpt.Plan.PeakBytes, latOpt.RecomputedRows, latOpt.Est.Cycles},
			}
			if got != tc.want {
				t.Errorf("memory- and latency-optimal endpoints %+v, want %+v", got, tc.want)
			}
			// Every frontier plan re-derives exactly through its pinned
			// options — the property serve's variant execution depends on.
			for _, v := range []Variant{memOpt, latOpt} {
				np, err := Plan(net, v.Opts)
				if err != nil {
					t.Fatalf("%s: pinned re-solve failed: %v", v.Desc, err)
				}
				if np.Fingerprint() != v.Plan.Fingerprint() {
					t.Errorf("%s: pinned options do not reproduce the frontier plan", v.Desc)
				}
			}
			// No frontier member dominates another.
			for i, a := range vs {
				for j, b := range vs {
					if i == j {
						continue
					}
					if b.Plan.PeakBytes <= a.Plan.PeakBytes && b.Est.Cycles <= a.Est.Cycles &&
						b.Est.EnergyJoules <= a.Est.EnergyJoules &&
						(b.Plan.PeakBytes < a.Plan.PeakBytes || b.Est.Cycles < a.Est.Cycles ||
							b.Est.EnergyJoules < a.Est.EnergyJoules) {
						t.Errorf("frontier member %q dominates %q", b.Desc, a.Desc)
					}
				}
			}
		})
	}
}

func TestMinLatencyObjective(t *testing.T) {
	net := graph.ImageNet()
	prof := mcu.CortexM4()
	minPeak, err := Plan(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	estPeak, err := EstimatePlan(prof, net, minPeak)
	if err != nil {
		t.Fatal(err)
	}

	// Unbounded: the fastest schedule, paying peak bytes for it.
	fast, err := Plan(net, Options{Objective: MinLatency})
	if err != nil {
		t.Fatal(err)
	}
	estFast, err := EstimatePlan(prof, net, fast)
	if err != nil {
		t.Fatal(err)
	}
	if estFast.Cycles >= estPeak.Cycles {
		t.Errorf("min-latency %.0f cycles not below min-peak %.0f", estFast.Cycles, estPeak.Cycles)
	}
	if fast.PeakBytes <= minPeak.PeakBytes {
		t.Errorf("min-latency peak %d unexpectedly at/below min-peak %d (no tradeoff left?)",
			fast.PeakBytes, minPeak.PeakBytes)
	}

	// Under the min-peak budget: latency objective must respect the bytes
	// and can only pick schedules that fit — including the min-peak one.
	tight, err := Plan(net, Options{Objective: MinLatency, BudgetBytes: minPeak.PeakBytes})
	if err != nil {
		t.Fatal(err)
	}
	if tight.PeakBytes > minPeak.PeakBytes {
		t.Errorf("budgeted min-latency peak %d exceeds budget %d", tight.PeakBytes, minPeak.PeakBytes)
	}
	estTight, err := EstimatePlan(prof, net, tight)
	if err != nil {
		t.Fatal(err)
	}
	if estTight.Cycles > estPeak.Cycles {
		t.Errorf("budgeted min-latency %.0f cycles above min-peak schedule's %.0f",
			estTight.Cycles, estPeak.Cycles)
	}

	// An impossible budget fails, like the min-peak objective does.
	if _, err := Plan(net, Options{Objective: MinLatency, BudgetBytes: 1024}); err == nil {
		t.Error("1 KB budget must be infeasible")
	}
	if _, err := Plan(net, Options{Objective: Objective(99)}); err == nil {
		t.Error("unknown objective must error")
	}
}

func TestParetoRespectsPins(t *testing.T) {
	net := graph.ImageNet()
	prof := mcu.CortexM7()
	vs, err := Pareto(prof, net, Options{Split: SplitOptions{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.Plan.Split != nil {
			t.Errorf("%s: split adopted with the split search disabled", v.Desc)
		}
	}
	vs, err = Pareto(prof, net, Options{Split: SplitOptions{Depth: 2, Patches: 8}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.Plan.Split == nil || v.Plan.Split.Depth != 2 || v.Plan.Split.Patches != 8 {
			t.Errorf("%s: pinned split 2×8 not honored: %+v", v.Desc, v.Plan.Split)
		}
	}
	// The Disable+pin conflict surfaces as the same explicit error Plan
	// raises, not as a misleading "no feasible candidate".
	_, err = Pareto(prof, net, Options{Split: SplitOptions{Disable: true, Depth: 2}})
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Errorf("Disable+pinned split: got %v, want the options-conflict error", err)
	}
}
