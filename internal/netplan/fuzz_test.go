package netplan

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/cost"
	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// randomChain generates a random schedulable network: 2–5 inverted
// bottlenecks with random shapes, strides, and residual opportunities,
// joined by boundaries drawn from all three kinds — connectable,
// streamable seam (stride-1 channel change or stride-2 downsample), and
// non-streamable (upsample, disjoint handoff only). Dims stay small so a
// hundred chains execute end to end in test time.
func randomChain(rng *rand.Rand, n int) graph.Network {
	net := graph.Network{Name: fmt.Sprintf("fuzz-%d", n)}
	h := 4 + rng.Intn(9) // 4..12
	cin := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		r := []int{1, 3, 5}[rng.Intn(3)]
		cfg := plan.Bottleneck{
			Name: fmt.Sprintf("M%d", i),
			H:    h, W: h,
			Cin:  cin,
			Cmid: 2 + rng.Intn(14),
			Cout: 1 + rng.Intn(12),
			R:    r, S: r,
			S1: 1 + rng.Intn(2),
			S2: 1 + rng.Intn(2),
			S3: 1,
		}
		if rng.Intn(4) == 0 {
			// Open the residual door: same channels, and stride-1 keeps
			// the plane, making Residual() true.
			cfg.Cout = cfg.Cin
			cfg.S1, cfg.S2 = 1, 1
		}
		net.Modules = append(net.Modules, cfg)

		_, _, _, _, h3, _ := cfg.Grids()
		switch rng.Intn(3) {
		case 0: // connectable: shapes chain exactly
			h, cin = h3, cfg.Cout
		case 1: // streamable seam: strided pointwise glue
			s := 1 + rng.Intn(2)
			h, cin = (h3-1)/s+1, 1+rng.Intn(12)
		default: // non-streamable: consumer plane larger than producer's
			h, cin = h3+1+rng.Intn(3), 1+rng.Intn(8)
		}
	}
	return net
}

// TestFuzzPlanAndRun is the Invariant 1–3 closure over random chains,
// previously checked only on the two Table-2 backbones: for ≥100 random
// networks, a feasible plan must (1) satisfy every recorded difference
// constraint at the solved offsets with every tensor reachable from the
// anchor, (2) stream strictly no worse than the disjoint schedule, and
// (3) execute end to end — modules, split regions, and seam kernels —
// bit-exactly with zero shadow-state violations. Run with -race.
func TestFuzzPlanAndRun(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	profile := mcu.CortexM7()
	cache := NewCache()
	executed := 0
	for iter := 0; iter < 110; iter++ {
		net := randomChain(rng, 2+rng.Intn(4))
		opts := Options{BudgetBytes: profile.RAMBytes()}
		np, err := Plan(net, opts)
		if err != nil {
			t.Fatalf("iter %d %+v: plan failed: %v", iter, net.Modules, err)
		}

		// Invariant: every recorded difference constraint holds at the
		// solved offsets, and no tensor sits below the pool floor.
		for _, c := range np.Constraints {
			hi, lo := np.Tensors[c.Hi], np.Tensors[c.Lo]
			if hi.Offset-lo.Offset < c.Gap {
				t.Fatalf("iter %d: off(%s)-off(%s) = %d below gap %d",
					iter, hi.Name, lo.Name, hi.Offset-lo.Offset, c.Gap)
			}
		}
		for _, tn := range np.Tensors {
			if tn.Offset < 0 {
				t.Fatalf("iter %d: tensor %s at negative offset %d", iter, tn.Name, tn.Offset)
			}
		}
		// Invariant: streaming never loses to the disjoint schedule, and
		// both agree on the boundary census.
		dis, err := Plan(net, Options{Handoff: HandoffDisjoint, BudgetBytes: profile.RAMBytes()})
		if err != nil {
			t.Fatalf("iter %d: disjoint plan failed: %v", iter, err)
		}
		if np.PeakBytes > dis.PeakBytes {
			t.Fatalf("iter %d: streamed peak %d above disjoint peak %d", iter, np.PeakBytes, dis.PeakBytes)
		}
		if np.Handoffs != dis.Handoffs {
			t.Fatalf("iter %d: handoff census differs between modes: %d vs %d", iter, np.Handoffs, dis.Handoffs)
		}

		// Invariant: plan feasibility implies execution — every unit
		// verifies bit-exactly with zero shadow-state violations.
		res, err := Run(profile, net, int64(iter), opts, cache)
		if err != nil {
			t.Fatalf("iter %d %+v: run failed: %v", iter, net.Modules, err)
		}
		if !res.AllVerified || res.Violations != 0 {
			t.Fatalf("iter %d %+v: verified=%v violations=%d",
				iter, net.Modules, res.AllVerified, res.Violations)
		}
		if len(res.Seams) != np.StreamedHandoffs {
			t.Fatalf("iter %d: %d seam results for %d streamed handoffs", iter, len(res.Seams), np.StreamedHandoffs)
		}
		checkUnitList(t, net, np)

		// Invariant (cost model): the analytic estimate's executed portion
		// reproduces the summed device counters of the run exactly — the
		// random chains reach kernel geometry (tiny planes, w3 = 1 column
		// caches, upsample glue) the Table-2 backbones never exercise.
		est, err := EstimatePlan(profile, net, np)
		if err != nil {
			t.Fatalf("iter %d: estimate failed: %v", iter, err)
		}
		if measured := sumExecuted(res); est.Executed != measured {
			t.Fatalf("iter %d %+v: estimate diverges from counters\nestimate %+v\nmeasured %+v",
				iter, net.Modules, est.Executed, measured)
		}
		checkUnitEstimates(t, np, est, res)

		// Invariant (cost model): estimated cycles are monotone in the halo
		// recompute and never fall below the zero-recompute lower bound.
		if np.Split != nil {
			region := np.Split.Plan
			prevCycles, prevRows := 0.0, -1
			for n := 2; n <= region.Spec.Patches; n++ {
				sp, err := plan.PlanSplit(plan.SplitSpec{Modules: region.Spec.Modules, Patches: n})
				if err != nil {
					continue
				}
				cyc := cost.SplitRegion(sp).Cycles(profile)
				if floor := cost.SplitRegionFloor(sp).Cycles(profile); cyc < floor {
					t.Fatalf("iter %d: split ×%d estimate %.0f below zero-recompute floor %.0f",
						iter, n, cyc, floor)
				}
				if sp.RecomputedRows > prevRows && cyc < prevCycles {
					t.Fatalf("iter %d: split ×%d cycles %.0f fell while recompute rose to %d",
						iter, n, cyc, sp.RecomputedRows)
				}
				prevCycles, prevRows = cyc, sp.RecomputedRows
			}
		}
		executed++
	}
	if executed < 100 {
		t.Fatalf("only %d chains executed, want ≥ 100", executed)
	}
}

// checkUnitList asserts the invariants of a plan's unit list: the units
// cover every Steps index exactly once, in order; each unit reads the
// activation the one before it wrote, and the last writes the network
// output (the anchor at offset 0); the split region comes first, then
// every remaining module once, in network order; seams are numbered in
// list order; and every handoff not streamed is one glue unit, carrying
// the seam spec that prices it where a seam could express the boundary.
func checkUnitList(t testing.TB, net graph.Network, np *NetworkPlan) {
	t.Helper()
	next, mod, seams, glue := 0, 0, 0, 0
	prevOut := 0 // the network input, tensor 0, when there is no split region
	for i, u := range np.Units {
		if u.FirstStep != next || u.LastStep < u.FirstStep {
			t.Fatalf("unit %d %s covers steps %d..%d, want it to start at %d",
				i, u.Name, u.FirstStep, u.LastStep, next)
		}
		next = u.LastStep + 1
		if u.In != prevOut && (u.Kind != UnitSplit || u.In != -1) {
			t.Fatalf("unit %d %s reads tensor %d, its predecessor wrote %d", i, u.Name, u.In, prevOut)
		}
		prevOut = u.Out
		switch u.Kind {
		case UnitSplit:
			if i != 0 || np.Split == nil {
				t.Fatalf("split unit %s at position %d (plan split %+v)", u.Name, i, np.Split)
			}
			mod = np.Split.Depth
		case UnitModule:
			if u.Index != mod {
				t.Fatalf("unit %d %s runs module %d, want %d", i, u.Name, u.Index, mod)
			}
			mod++
			for s := u.FirstStep; s <= u.LastStep; s++ {
				if np.Steps[s].Module != u.Index {
					t.Fatalf("unit %s covers step %s of module %d", u.Name, np.Steps[s].Name, np.Steps[s].Module)
				}
			}
		case UnitSeam:
			if u.Index != seams || np.Seams[u.Index].Producer != mod-1 {
				t.Fatalf("seam unit %s has index %d after module %d, want %d after %d",
					u.Name, u.Index, mod-1, seams, np.Seams[u.Index].Producer)
			}
			seams++
		case UnitGlue:
			if u.Index != mod-1 {
				t.Fatalf("glue unit %s names producer %d, want %d", u.Name, u.Index, mod-1)
			}
			// The glue op is priced as the seam that would express it.
			if spec, _ := plan.SeamOf(net.Modules[mod-1], net.Modules[mod]); u.Glue != spec {
				t.Fatalf("glue unit %s carries seam spec %+v, want %+v", u.Name, u.Glue, spec)
			}
			glue++
		}
		if u.Kind == UnitSeam || u.Kind == UnitGlue {
			if u.FirstStep != u.LastStep || np.Steps[u.FirstStep].Module != -1 {
				t.Fatalf("handoff unit %s covers steps %d..%d", u.Name, u.FirstStep, u.LastStep)
			}
		}
	}
	if next != len(np.Steps) {
		t.Fatalf("units cover %d of %d steps", next, len(np.Steps))
	}
	if mod != len(net.Modules) || seams != len(np.Seams) {
		t.Fatalf("units run %d of %d modules and %d of %d seams", mod, len(net.Modules), seams, len(np.Seams))
	}
	if glue != np.Handoffs-len(np.Seams) {
		t.Fatalf("%d glue units for %d handoffs and %d seams", glue, np.Handoffs, len(np.Seams))
	}
	if np.Tensors[prevOut].Offset != 0 {
		t.Fatalf("last unit writes %s at offset %d, not the anchored output",
			np.Tensors[prevOut].Name, np.Tensors[prevOut].Offset)
	}
}

// FuzzPlanUnits plans random chains in both handoff modes, without
// executing them, and checks every plan's unit list and that the cost
// estimate prices exactly those units, in order.
func FuzzPlanUnits(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		net := randomChain(rng, 2+rng.Intn(4))
		for _, mode := range []HandoffMode{HandoffStream, HandoffDisjoint} {
			np, err := Plan(net, Options{Handoff: mode})
			if err != nil {
				t.Fatalf("%v plan of %+v: %v", mode, net.Modules, err)
			}
			checkUnitList(t, net, np)
			est, err := EstimatePlan(mcu.CortexM4(), net, np)
			if err != nil {
				t.Fatal(err)
			}
			checkUnitEstimates(t, np, est, nil)
		}
	})
}
