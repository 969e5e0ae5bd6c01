// Package graph encodes the paper's evaluation networks (Table 2) and
// provides a whole-network executor: each inverted-bottleneck module is
// planned, placed on a simulated device, executed with the fused kernel,
// and verified bit-exactly against the golden composition. Per-module
// peak RAM across the network identifies the deployment bottleneck the
// paper's Figures 9 and 10 report.
package graph

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/baseline"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// Network is a named stack of inverted-bottleneck modules.
type Network struct {
	Name    string
	Modules []plan.Bottleneck
}

// VWW returns MCUNet-5fps-VWW's backbone modules S1–S8 (Table 2).
func VWW() Network {
	rows := []struct {
		name                  string
		hw, cin, cm, cout, rs int
		s1, s2, s3            int
	}{
		{"S1", 20, 16, 48, 16, 3, 1, 1, 1},
		{"S2", 20, 16, 48, 16, 3, 1, 1, 1},
		{"S3", 10, 24, 144, 16, 3, 1, 1, 1},
		{"S4", 10, 24, 120, 24, 3, 1, 1, 1},
		{"S5", 5, 40, 240, 40, 3, 1, 1, 1},
		{"S6", 5, 48, 192, 48, 3, 1, 1, 1},
		{"S7", 3, 96, 480, 96, 3, 1, 1, 1},
		{"S8", 3, 96, 384, 96, 3, 1, 1, 1},
	}
	return buildNetwork("MCUNet-5fps-VWW", rows)
}

// ImageNet returns MCUNet-320KB-ImageNet's modules B1–B17 (Table 2; the
// backbone's final module is excluded from fusion exactly as in §7.3).
func ImageNet() Network {
	rows := []struct {
		name                  string
		hw, cin, cm, cout, rs int
		s1, s2, s3            int
	}{
		{"B1", 176, 3, 16, 8, 3, 2, 1, 1},
		{"B2", 88, 8, 24, 16, 7, 1, 2, 1},
		{"B3", 44, 16, 80, 16, 3, 1, 1, 1},
		{"B4", 44, 16, 80, 16, 7, 1, 1, 1},
		{"B5", 44, 16, 64, 24, 5, 1, 1, 1},
		{"B6", 44, 16, 80, 24, 5, 1, 2, 1},
		{"B7", 22, 24, 120, 24, 5, 1, 1, 1},
		{"B8", 22, 24, 120, 24, 5, 1, 1, 1},
		{"B9", 22, 24, 120, 40, 3, 1, 2, 1},
		{"B10", 11, 40, 240, 40, 7, 1, 1, 1},
		{"B11", 11, 40, 160, 40, 5, 1, 1, 1},
		{"B12", 11, 40, 200, 48, 7, 1, 2, 1},
		{"B13", 11, 48, 240, 48, 7, 1, 1, 1},
		{"B14", 11, 48, 240, 48, 3, 1, 1, 1},
		{"B15", 11, 48, 288, 96, 3, 1, 2, 1},
		{"B16", 6, 96, 480, 96, 7, 1, 1, 1},
		{"B17", 6, 96, 384, 96, 3, 1, 1, 1},
	}
	return buildNetwork("MCUNet-320KB-ImageNet", rows)
}

func buildNetwork(name string, rows []struct {
	name                  string
	hw, cin, cm, cout, rs int
	s1, s2, s3            int
}) Network {
	n := Network{Name: name}
	for _, r := range rows {
		n.Modules = append(n.Modules, plan.Bottleneck{
			Name: r.name, H: r.hw, W: r.hw,
			Cin: r.cin, Cmid: r.cm, Cout: r.cout,
			R: r.rs, S: r.rs, S1: r.s1, S2: r.s2, S3: r.s3,
		})
	}
	return n
}

// ModuleReport compares the three systems' peak RAM for one module.
type ModuleReport struct {
	Cfg        plan.Bottleneck
	VMCU       int
	TinyEngine int
	HMCOS      int
}

// Report plans every module under vMCU, TinyEngine and HMCOS.
func (n Network) Report() []ModuleReport {
	out := make([]ModuleReport, 0, len(n.Modules))
	for _, m := range n.Modules {
		out = append(out, ModuleReport{
			Cfg:        m,
			VMCU:       plan.PlanBottleneckModule(m).FootprintBytes,
			TinyEngine: baseline.TinyEngineBottleneckRAM(m),
			HMCOS:      baseline.HMCOSBottleneckRAM(m),
		})
	}
	return out
}

// Bottleneck returns the network-wide memory bottleneck (the module with
// the maximum footprint) for each system.
func (n Network) Bottleneck() (vmcu, tiny, hmcos ModuleReport) {
	for i, r := range n.Report() {
		if i == 0 || r.VMCU > vmcu.VMCU {
			vmcu = r
		}
		if i == 0 || r.TinyEngine > tiny.TinyEngine {
			tiny = r
		}
		if i == 0 || r.HMCOS > hmcos.HMCOS {
			hmcos = r
		}
	}
	return
}

// ExecResult reports one executed module.
type ExecResult struct {
	Name       string
	Plan       plan.Plan
	Stats      mcu.Stats
	PeakBytes  int
	Violations int
	OutputOK   bool
}

// Run executes every module of the network under the profile.
func (n Network) Run(profile mcu.Profile, seed int64) ([]ExecResult, error) {
	out := make([]ExecResult, 0, len(n.Modules))
	for i, m := range n.Modules {
		r, err := RunModule(profile, m, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("graph: %s: %w", m.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}
