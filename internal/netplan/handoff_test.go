package netplan

import (
	"strings"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// TestHandoffStreamSchedulesSeams checks the streamed schedule's shape on
// VWW: all five non-connectable boundaries stream, each seam step records
// the solved Eq. (1) gap (strictly below the disjoint consumer-input
// separation), and the step/tensor counts match the disjoint schedule —
// streaming changes constraints, not the timeline's shape.
func TestHandoffStreamSchedulesSeams(t *testing.T) {
	stream := planOK(t, graph.VWW(), Options{})
	disjoint := planOK(t, graph.VWW(), Options{Handoff: HandoffDisjoint})
	if stream.StreamedHandoffs != 5 || len(stream.Seams) != 5 {
		t.Fatalf("VWW streamed %d handoffs (%d seams), want 5", stream.StreamedHandoffs, len(stream.Seams))
	}
	if disjoint.StreamedHandoffs != 0 || len(disjoint.Seams) != 0 {
		t.Fatalf("disjoint mode recorded %d streamed handoffs", disjoint.StreamedHandoffs)
	}
	if len(stream.Steps) != len(disjoint.Steps) || len(stream.Tensors) != len(disjoint.Tensors) {
		t.Errorf("stream timeline %d steps/%d tensors != disjoint %d/%d",
			len(stream.Steps), len(stream.Tensors), len(disjoint.Steps), len(disjoint.Tensors))
	}
	seamSteps := 0
	for _, st := range stream.Steps {
		if strings.Contains(st.Name, "seam") {
			seamSteps++
			if st.Module != -1 {
				t.Errorf("seam step %s carries module index %d, want -1", st.Name, st.Module)
			}
		}
		if strings.Contains(st.Name, "handoff") {
			t.Errorf("streamable VWW boundary kept a disjoint handoff step: %s", st.Name)
		}
	}
	if seamSteps != 5 {
		t.Errorf("%d seam steps, want 5", seamSteps)
	}
	for _, s := range stream.Seams {
		if s.Plan.GapBytes() >= s.Spec.OutBytes() {
			t.Errorf("seam %s gap %dB not below the disjoint separation %dB",
				s.Name, s.Plan.GapBytes(), s.Spec.OutBytes())
		}
		next := graph.VWW().Modules[s.Producer+1]
		if s.Spec.OutBytes() != next.H*next.W*next.Cin {
			t.Errorf("seam %s output %dB does not feed %s input", s.Name, s.Spec.OutBytes(), next.Name)
		}
	}
}

// TestHandoffStreamFallsBackDisjoint: ImageNet's B12→B13 boundary (the
// consumer plane is larger than the producer's) is not expressible as a
// strided pointwise, so even under HandoffStream it must keep the
// disjoint handoff step.
func TestHandoffStreamFallsBackDisjoint(t *testing.T) {
	np := planOK(t, graph.ImageNet(), Options{})
	if np.Handoffs != 2 || np.StreamedHandoffs != 1 {
		t.Fatalf("ImageNet handoffs = %d streamed = %d, want 2/1", np.Handoffs, np.StreamedHandoffs)
	}
	if len(np.Seams) != 1 || np.Seams[0].Name != "B5>B6" {
		t.Fatalf("seams = %+v, want exactly B5>B6", np.Seams)
	}
	var sawFallback bool
	for _, st := range np.Steps {
		if st.Name == "B12>B13 handoff" {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Error("B12>B13 upsample boundary lost its disjoint handoff step")
	}
}

// TestHandoffModeKeysCache: the two modes must solve and cache separately.
func TestHandoffModeKeysCache(t *testing.T) {
	c := NewCache()
	net := graph.VWW()
	s, hit, err := c.Plan(net, Options{})
	if err != nil || hit {
		t.Fatalf("first stream solve: hit=%v err=%v", hit, err)
	}
	d, hit, err := c.Plan(net, Options{Handoff: HandoffDisjoint})
	if err != nil || hit {
		t.Fatalf("first disjoint solve reused the stream entry: hit=%v err=%v", hit, err)
	}
	if s == d || s.Fingerprint() == d.Fingerprint() {
		t.Error("stream and disjoint plans are indistinguishable")
	}
}

// TestHandoffModeValidation rejects out-of-range modes instead of
// silently scheduling something undefined.
func TestHandoffModeValidation(t *testing.T) {
	if _, err := Plan(graph.VWW(), Options{Handoff: HandoffMode(7)}); err == nil {
		t.Error("handoff mode 7 accepted")
	}
}

// TestRunNetworkStreamedSeams executes VWW under the default streamed
// mode: all five seam units must verify bit-exactly with zero violations,
// in network order, without disturbing the per-module results.
func TestRunNetworkStreamedSeams(t *testing.T) {
	res, err := Run(mcu.CortexM4(), graph.VWW(), 7, Options{BudgetBytes: mcu.CortexM4().RAMBytes()}, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllVerified || res.Violations != 0 {
		t.Fatalf("streamed network run failed: verified=%v violations=%d", res.AllVerified, res.Violations)
	}
	if len(res.Modules) != 8 {
		t.Fatalf("got %d module results, want 8 (seams must not leak into Modules)", len(res.Modules))
	}
	if len(res.Seams) != 5 {
		t.Fatalf("got %d seam results, want 5", len(res.Seams))
	}
	for i, r := range res.Seams {
		if want := res.Plan.Seams[i].Name; r.Name != want {
			t.Errorf("seam result %d is %q, want %q (order lost)", i, r.Name, want)
		}
		if !r.OutputOK || r.Violations != 0 {
			t.Errorf("seam %s failed: ok=%v violations=%d", r.Name, r.OutputOK, r.Violations)
		}
		if r.PeakBytes > res.Plan.Seams[i].Plan.FootprintBytes {
			t.Errorf("seam %s measured peak %d exceeds planned footprint %d",
				r.Name, r.PeakBytes, res.Plan.Seams[i].Plan.FootprintBytes)
		}
	}
	// The network peak must cover every seam's executable footprint, so a
	// plan accepted under a budget always runs.
	for _, s := range res.Plan.Seams {
		if res.Plan.PeakBytes < s.Plan.FootprintBytes {
			t.Errorf("network peak %d below seam %s footprint %d",
				res.Plan.PeakBytes, s.Name, s.Plan.FootprintBytes)
		}
	}
}

// TestSeamWindowCoversFootprint: the seam step's solved window must be at
// least the seam plan's executable footprint (the step holds producer and
// consumer at the solved gap, which is exactly what the seam device
// allocates), keeping plan-feasibility ⇒ run-feasibility across handoffs.
func TestSeamWindowCoversFootprint(t *testing.T) {
	np := planOK(t, graph.ImageNet(), Options{})
	for _, s := range np.Seams {
		found := false
		for _, st := range np.Steps {
			if st.Name == s.Name+" seam" || strings.HasPrefix(st.Name, s.Name) && strings.Contains(st.Name, "seam") {
				found = true
				if st.WindowBytes < s.Plan.FootprintBytes {
					t.Errorf("seam %s window %d below executable footprint %d",
						s.Name, st.WindowBytes, s.Plan.FootprintBytes)
				}
			}
		}
		if !found {
			t.Errorf("no step found for seam %s", s.Name)
		}
	}
	// And a solved-offset sanity check mirroring the constraint record:
	// producer − consumer offset ≥ the seam gap.
	for _, c := range np.Constraints {
		hi, lo := np.Tensors[c.Hi], np.Tensors[c.Lo]
		if hi.Offset-lo.Offset < c.Gap {
			t.Errorf("off(%s)-off(%s) = %d below gap %d", hi.Name, lo.Name, hi.Offset-lo.Offset, c.Gap)
		}
	}
}

// TestSeamOfAgreesWithConnects: no connectable boundary in either backbone
// is mistaken for a seam, and every seam's plan chains with the raw module
// tensor sizes on both sides.
func TestSeamOfAgreesWithConnects(t *testing.T) {
	for _, net := range []graph.Network{graph.VWW(), graph.ImageNet()} {
		for i := 0; i+1 < len(net.Modules); i++ {
			a, b := net.Modules[i], net.Modules[i+1]
			if plan.Connectable(a, b) {
				continue
			}
			spec, ok := plan.SeamOf(a, b)
			if !ok {
				continue
			}
			p := plan.PlanSeam(spec)
			_, _, _, _, h3, w3 := a.Grids()
			if p.InBytes != h3*w3*a.Cout {
				t.Errorf("%s: seam input %dB != %s output %dB", spec.Name, p.InBytes, a.Name, h3*w3*a.Cout)
			}
			if p.OutBytes != b.H*b.W*b.Cin {
				t.Errorf("%s: seam output %dB != %s input %dB", spec.Name, p.OutBytes, b.Name, b.H*b.W*b.Cin)
			}
		}
	}
}
