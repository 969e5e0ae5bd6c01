package graph_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
)

// unit is one executor call of a network schedule on one profile.
type unit struct {
	name string
	run  func() (graph.ExecResult, error)
}

// scheduleUnits lists the units netplan.Run executes for net's min-peak
// schedule — split region, modules under their policies, streamed seams —
// bound to profile p.
func scheduleUnits(t *testing.T, net graph.Network, p mcu.Profile) []unit {
	t.Helper()
	np, err := netplan.Plan(net, netplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	tag := func(name string) string { return fmt.Sprintf("%s/%s", p.Name, name) }
	var units []unit
	start := 0
	if np.Split != nil {
		sp := np.Split.Plan
		units = append(units, unit{tag("split"), func() (graph.ExecResult, error) {
			return graph.RunSplitRegion(p, sp, seed)
		}})
		start = np.Split.Depth
	}
	for i := start; i < len(net.Modules); i++ {
		cfg, ms, s := net.Modules[i], np.Modules[i], int64(seed+i)
		run := func() (graph.ExecResult, error) { return graph.RunModuleWithPlan(p, cfg, ms.Plans[0], s) }
		if ms.Policy == netplan.PolicyUnfused {
			run = func() (graph.ExecResult, error) { return graph.RunModuleUnfused(p, cfg, s) }
		}
		units = append(units, unit{tag(cfg.Name), run})
	}
	for si, sc := range np.Seams {
		sc, s := sc, int64(seed+len(net.Modules)+si)
		units = append(units, unit{tag(sc.Name), func() (graph.ExecResult, error) {
			return graph.RunSeam(p, sc.Spec, sc.Plan, s)
		}})
	}
	return units
}

// TestPooledUnitsMatchFresh runs every unit of the min-peak VWW and
// ImageNet schedules on M4 three times: cold, each on a newly built
// device, then twice warm on pooled devices, the second warm pass from two
// goroutines at once. VWW's units on M7 are interleaved, so both RAM
// sizes' pools hand devices on. Every unit's ExecResult must be identical
// across the three passes.
func TestPooledUnitsMatchFresh(t *testing.T) {
	m4 := append(scheduleUnits(t, graph.VWW(), mcu.CortexM4()), scheduleUnits(t, graph.ImageNet(), mcu.CortexM4())...)
	m7 := scheduleUnits(t, graph.VWW(), mcu.CortexM7())
	var units []unit
	for i := range m4 {
		units = append(units, m4[i])
		if i < len(m7) {
			units = append(units, m7[i])
		}
	}

	cold := make([]graph.ExecResult, len(units))
	for i, u := range units {
		graph.DropPooledDevices()
		r, err := u.run()
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		if !r.OutputOK || r.Violations != 0 {
			t.Fatalf("%s: cold run verified=%v violations=%d", u.name, r.OutputOK, r.Violations)
		}
		cold[i] = r
	}

	check := func(pass string, i int, r graph.ExecResult, err error) {
		if err != nil {
			t.Errorf("%s %s: %v", pass, units[i].name, err)
		} else if !reflect.DeepEqual(r, cold[i]) {
			t.Errorf("%s %s: pooled result differs from fresh\npooled: %+v\nfresh:  %+v", pass, units[i].name, r, cold[i])
		}
	}
	for i, u := range units {
		r, err := u.run()
		check("warm", i, r, err)
	}

	res := make([]graph.ExecResult, len(units))
	errs := make([]error, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(units); i = int(next.Add(1)) - 1 {
				res[i], errs[i] = units[i].run()
			}
		}()
	}
	wg.Wait()
	for i := range units {
		check("concurrent warm", i, res[i], errs[i])
	}
}
