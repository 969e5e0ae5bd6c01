package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// TestUnitsRunInNetworkPool runs unit steps inside a pool the size of
// their network's solved peak (NetworkPlan.PeakBytes) at a nonzero RAM
// base, with the workspace after it: the fused VWW S5 and ImageNet B7,
// whose segment sizes do not divide their network's peak, and ImageNet's
// unfused B16. Each must verify bit for bit with no violation, and its
// counters, peak and verdict must equal its run in its own pool: the pool
// is byte-granular and charges one modulo per access wherever it sits.
// The highest base runs the workspace up to the last byte of RAM. This is
// the pool one network-wide executor runs every unit in.
func TestUnitsRunInNetworkPool(t *testing.T) {
	prof := mcu.CortexM4()
	for _, c := range []struct {
		net     graph.Network
		module  int
		unfused bool
	}{
		{graph.VWW(), 4, false},      // S5, 40-B segments
		{graph.ImageNet(), 6, false}, // B7, 24-B segments
		{graph.ImageNet(), 15, true}, // B16, unfused chain
	} {
		np, err := netplan.Plan(c.net, netplan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := graph.DrawWeights(c.net, 1)
		if err != nil {
			t.Fatal(err)
		}
		mw := w.Modules[c.module]
		p := plan.PlanBottleneckModule(mw.Cfg)
		own := func(seed int64) (graph.ExecResult, error) {
			return graph.ExecModule(prof, mw, p, rand.New(rand.NewSource(seed)))
		}
		in := func(seed int64, base int) (graph.ExecResult, error) {
			return graph.ExecModuleIn(prof, mw, p, rand.New(rand.NewSource(seed)), base, np.PeakBytes)
		}
		if c.unfused {
			own = func(seed int64) (graph.ExecResult, error) {
				return graph.ExecModuleUnfused(prof, mw, rand.New(rand.NewSource(seed)))
			}
			in = func(seed int64, base int) (graph.ExecResult, error) {
				return graph.ExecModuleUnfusedIn(prof, mw, rand.New(rand.NewSource(seed)), base, np.PeakBytes)
			}
		} else if np.PeakBytes%p.SegBytes == 0 {
			t.Errorf("%s: %d-B segments divide the %d-B network peak; pick a unit they do not", mw.Cfg.Name, p.SegBytes, np.PeakBytes)
		}
		want, err := own(3)
		if err != nil {
			t.Fatal(err)
		}
		// top is the highest base at which the pool and the workspace
		// after it still fit in RAM; one byte higher, they do not.
		ws := p.WorkspaceBytes
		if c.unfused {
			ws = 0
		}
		top := prof.RAMBytes() - np.PeakBytes - ws
		if _, err := in(3, top+1); err == nil {
			t.Errorf("%s: pool at base %d runs past RAM, but the run was accepted", mw.Cfg.Name, top+1)
		}
		for _, base := range []int{12, 1000, top} {
			got, err := in(3, base)
			if err != nil {
				t.Fatalf("%s at base %d: %v", mw.Cfg.Name, base, err)
			}
			if !got.OutputOK || got.Violations != 0 {
				t.Errorf("%s in the %d-B %s pool at base %d: verified=%v violations=%d",
					got.Name, np.PeakBytes, c.net.Name, base, got.OutputOK, got.Violations)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at base %d: result differs from its own pool's\nnetwork pool: %+v\nown pool:     %+v",
					got.Name, base, got, want)
			}
		}
	}
}
