//go:build !race

// The test runs sequentially on one goroutine, so the race detector has
// nothing to check in it, and it would stretch its ImageNet runs ~15×.

package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
)

// weightedUnit is one executor call of a network schedule on given
// weights, its input drawn from rng.
type weightedUnit struct {
	name string
	run  func(w *graph.Weights, rng *rand.Rand) (graph.ExecResult, error)
}

// premiseUnits lists every unit of net's min-peak schedule — split region,
// modules under their policies, streamed seams — plus each module that
// some Pareto variant runs unfused.
func premiseUnits(t *testing.T, net graph.Network, p mcu.Profile) []weightedUnit {
	t.Helper()
	np, err := netplan.Plan(net, netplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var units []weightedUnit
	start := 0
	if np.Split != nil {
		sp, depth := np.Split.Plan, np.Split.Depth
		units = append(units, weightedUnit{"split", func(w *graph.Weights, rng *rand.Rand) (graph.ExecResult, error) {
			return graph.ExecSplitRegion(p, sp, w.Modules[:depth], rng)
		}})
		start = depth
	}
	for i := start; i < len(net.Modules); i++ {
		i, ms := i, np.Modules[i]
		run := func(w *graph.Weights, rng *rand.Rand) (graph.ExecResult, error) {
			return graph.ExecModule(p, w.Modules[i], ms.Plans[0], rng)
		}
		if ms.Policy == netplan.PolicyUnfused {
			run = func(w *graph.Weights, rng *rand.Rand) (graph.ExecResult, error) {
				return graph.ExecModuleUnfused(p, w.Modules[i], rng)
			}
		}
		units = append(units, weightedUnit{fmt.Sprintf("%s(%s)", net.Modules[i].Name, ms.Policy), run})
	}
	for _, sc := range np.Seams {
		sc := sc
		units = append(units, weightedUnit{sc.Name + " seam", func(w *graph.Weights, rng *rand.Rand) (graph.ExecResult, error) {
			return graph.ExecSeam(p, w.Seams[sc.Producer], sc.Plan, rng)
		}})
	}
	variants, err := netplan.Pareto(p, net, netplan.Options{BudgetBytes: p.RAMBytes()})
	if err != nil {
		t.Fatal(err)
	}
	unfused := map[int]bool{}
	for _, v := range variants {
		for i, ms := range v.Plan.Modules {
			if ms.Policy != netplan.PolicyUnfused || unfused[i] {
				continue
			}
			unfused[i] = true
			units = append(units, weightedUnit{net.Modules[i].Name + "(unfused, Pareto)", func(w *graph.Weights, rng *rand.Rand) (graph.ExecResult, error) {
				return graph.ExecModuleUnfused(p, w.Modules[i], rng)
			}})
		}
	}
	if len(unfused) == 0 {
		t.Fatalf("%s: no Pareto variant runs a module unfused", net.Name)
	}
	return units
}

// TestCountersIndependentOfData is the premise that lets a served request
// run on the model's weights while a replay draws seeded ones: every
// unit's simulated counters and measured peak depend on the schedule
// alone. Each VWW and ImageNet unit runs under two weight seeds × two
// input seeds, verified and violation-free, with identical mcu.Stats and
// PeakBytes.
func TestCountersIndependentOfData(t *testing.T) {
	prof := mcu.CortexM4()
	for _, net := range []graph.Network{graph.VWW(), graph.ImageNet()} {
		units := premiseUnits(t, net, prof)
		first := make([]graph.ExecResult, len(units))
		combo := 0
		for _, wseed := range []int64{1, 2} {
			w, err := graph.DrawWeights(net, wseed)
			if err != nil {
				t.Fatal(err)
			}
			for _, inSeed := range []int64{3, 4} {
				for u, un := range units {
					r, err := un.run(w, rand.New(rand.NewSource(inSeed)))
					if err != nil {
						t.Fatalf("%s %s: %v", net.Name, un.name, err)
					}
					if !r.OutputOK || r.Violations != 0 {
						t.Errorf("%s %s (weights %d, input %d): verified=%v violations=%d",
							net.Name, un.name, wseed, inSeed, r.OutputOK, r.Violations)
					}
					if combo == 0 {
						first[u] = r
					} else if r.Stats != first[u].Stats || r.PeakBytes != first[u].PeakBytes {
						t.Errorf("%s %s (weights %d, input %d): stats %+v peak %d, want %+v peak %d",
							net.Name, un.name, wseed, inSeed, r.Stats, r.PeakBytes, first[u].Stats, first[u].PeakBytes)
					}
				}
				combo++
			}
		}
	}
}
