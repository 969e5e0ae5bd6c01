//go:build !race

// The frontier executes 37 whole-network verified runs, which the race
// detector slows to minutes per pass; Run's worker pool stays under -race
// through the package's other Run tests. CI's tier-1 step runs this file.

package netplan

import (
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
)

// TestParetoFrontierRuns executes every Pareto plan of VWW and ImageNet,
// priced on each built-in profile, on that profile whenever the plan's
// peak fits its RAM. Each must verify bit-exactly with zero shadow-state
// violations, and its executed counters, and so its cycles, must equal the
// estimate's executed portion. A plan over the profile's RAM is logged as
// skipped: Pareto does not yet drop those (on the M4, ImageNet's
// latency-optimal endpoint needs 196,656 B of a 131,072-B device).
func TestParetoFrontierRuns(t *testing.T) {
	for _, net := range []graph.Network{graph.VWW(), graph.ImageNet()} {
		cache := NewCache()
		for _, prof := range []mcu.Profile{mcu.CortexM4(), mcu.CortexM7()} {
			vs, err := Pareto(prof, net, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ran := 0
			for _, v := range vs {
				if v.Plan.PeakBytes > prof.RAMBytes() {
					t.Logf("%s on %s: skipped %s, peak %d B over %d B of RAM",
						net.Name, prof.Name, v.Desc, v.Plan.PeakBytes, prof.RAMBytes())
					continue
				}
				res, err := Run(prof, net, 1, v.Opts, cache)
				if err != nil {
					t.Errorf("%s on %s: %s: %v", net.Name, prof.Name, v.Desc, err)
					continue
				}
				if !res.AllVerified || res.Violations != 0 {
					t.Errorf("%s on %s: %s: verified=%v violations=%d",
						net.Name, prof.Name, v.Desc, res.AllVerified, res.Violations)
				}
				if got := sumExecuted(res); got != v.Est.Executed || got.Cycles(prof) != v.Est.ExecutedCycles {
					t.Errorf("%s on %s: %s: executed %+v (%.0f cycles), estimate %+v (%.0f cycles)",
						net.Name, prof.Name, v.Desc, got, got.Cycles(prof), v.Est.Executed, v.Est.ExecutedCycles)
				}
				ran++
			}
			if ran == 0 {
				t.Errorf("%s on %s: no frontier plan fits the device", net.Name, prof.Name)
			}
		}
	}
}
