package kernels_test

import (
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
)

// BenchmarkGoldenBottleneck computes the golden reference of ImageNet's B4
// (44×44×16, Cmid 80, 7×7 depthwise, residual) once per op: the host's
// reference pass of one verified module. GoldenBottleneck returns fresh
// slices, so it allocates its intermediate and output tensors on every op;
// the verifiers reuse a GoldenScratch instead.
func BenchmarkGoldenBottleneck(b *testing.B) {
	r, err := newFusedRig(graph.ImageNet().Modules[3], 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		r.golden()
	}
}
