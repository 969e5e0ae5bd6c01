package eval

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// SchedRow is one module of the whole-network schedule comparison: the
// policy the scheduler chose and the module's window in the shared pool
// against the footprint per-module planning (Network.Report) would charge.
type SchedRow struct {
	Name      string
	Policy    string
	WindowKB  float64 // contribution to the one-pool network peak
	FusedKB   float64 // per-module fused footprint (Report's vMCU column)
	Residual  bool
	Connected bool // input arrives in-pool from the previous module
}

// SchedSummary compares the scheduled network against per-module planning.
type SchedSummary struct {
	Network        string
	PeakKB         float64 // lifetime-aware one-pool network peak
	NoSplitPeakKB  float64 // best peak with patch splitting disabled
	PerModuleMaxKB float64 // max per-module fused footprint (Report max)
	SavedKB        float64 // PerModuleMaxKB − PeakKB (≥ 0 by construction)
	Steps          int
	Tensors        int
	Handoffs       int
	// StreamedHandoffs counts the handoffs scheduled as streamed seam
	// kernels (Eq. 1 gap instead of a disjoint placement).
	StreamedHandoffs int
	FitsBudget       bool
	// Patch-split region summary (SplitDepth == 0 when no split chosen).
	SplitDepth     int
	SplitPatches   int
	SplitRecompute int // halo rows recomputed across patches
}

// NetworkSchedule plans the whole network into one circular pool and
// reports, per module, the chosen policy and window, plus the
// network-level peak comparison.
func NetworkSchedule(net graph.Network, budgetBytes int) ([]SchedRow, SchedSummary, error) {
	return NetworkScheduleWithOptions(net, budgetBytes, netplan.Options{})
}

// NetworkScheduleWithOptions is NetworkSchedule with explicit scheduler
// options (forced policies, split pinning). Under the default min-peak
// objective opts.BudgetBytes is ignored in favour of budgetBytes, and
// unlike netplan.Plan an over-budget schedule is not an error here: the
// report still renders, with FitsBudget false — the eval surface exists to
// show exactly that case. The min-latency objective keeps its budget: the
// bytes are part of the objective itself, not just a feasibility check.
func NetworkScheduleWithOptions(net graph.Network, budgetBytes int, opts netplan.Options) ([]SchedRow, SchedSummary, error) {
	if opts.Objective == netplan.MinPeak {
		opts.BudgetBytes = 0
	}
	// Through the process-wide cache: a CLI that renders the schedule and
	// then estimates the same key pays for one solve, not two (plans are
	// read-only, so sharing is safe).
	np, _, err := netplan.Default.Plan(net, opts)
	if err != nil {
		return nil, SchedSummary{}, err
	}
	rows := make([]SchedRow, 0, len(np.Modules))
	for i, ms := range np.Modules {
		cfg := net.Modules[i]
		connected := i > 0 && plan.Connectable(net.Modules[i-1], cfg)
		rows = append(rows, SchedRow{
			Name:      ms.Name,
			Policy:    ms.Policy.String(),
			WindowKB:  KB(ms.WindowBytes),
			FusedKB:   KB(ms.FusedBytes),
			Residual:  cfg.Residual(),
			Connected: connected,
		})
	}
	s := SchedSummary{
		Network:          np.Network,
		PeakKB:           KB(np.PeakBytes),
		NoSplitPeakKB:    KB(np.NoSplitPeakBytes),
		PerModuleMaxKB:   KB(np.PerModuleMaxBytes),
		SavedKB:          KB(np.PerModuleMaxBytes - np.PeakBytes),
		Steps:            len(np.Steps),
		Tensors:          len(np.Tensors),
		Handoffs:         np.Handoffs,
		StreamedHandoffs: np.StreamedHandoffs,
		FitsBudget:       budgetBytes <= 0 || np.PeakBytes <= budgetBytes,
	}
	if np.Split != nil {
		s.SplitDepth = np.Split.Depth
		s.SplitPatches = np.Split.Patches
		s.SplitRecompute = np.Split.Plan.RecomputedRows
	}
	return rows, s, nil
}

// RenderNetworkSchedule formats the whole-network schedule comparison.
func RenderNetworkSchedule(rows []SchedRow, s SchedSummary, budgetBytes int) string {
	out := [][]string{}
	flag := func(b bool, yes string) string {
		if b {
			return yes
		}
		return "-"
	}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			r.Policy,
			fmt.Sprintf("%.1f", r.WindowKB),
			fmt.Sprintf("%.1f", r.FusedKB),
			flag(r.Residual, "res"),
			flag(r.Connected, "in-pool"),
		})
	}
	split := "patch split: none (no eligible prefix beat the non-split schedule)\n"
	if s.SplitDepth > 0 {
		split = fmt.Sprintf("patch split: first %d module(s) × %d patches (%d halo rows recomputed); without splitting the peak is %.1f KB\n",
			s.SplitDepth, s.SplitPatches, s.SplitRecompute, s.NoSplitPeakKB)
	}
	return fmt.Sprintf("Whole-network schedule: %s in one circular pool (budget %.1f KB)\n", s.Network, KB(budgetBytes)) +
		Table([]string{"module", "policy", "window KB", "per-module KB", "residual", "input"}, out) +
		split +
		fmt.Sprintf("network peak %.1f KB over %d steps / %d tensors (%d handoffs, %d streamed as seam kernels); per-module planning needs %.1f KB; fits budget: %v\n",
			s.PeakKB, s.Steps, s.Tensors, s.Handoffs, s.StreamedHandoffs, s.PerModuleMaxKB, s.FitsBudget)
}
